(** The microprogrammed test-and-repair controller.

    The FSM is compiled from a march test: per pass (test pass and
    verify pass) it chains one setup state per march element, one state
    per operation, one wait state per retention delay and a
    per-background loop state; global states handle idle, the TLB
    overflow check, pass-2 setup and the two terminal statuses.  The
    state graph is compiled to a dense table — per state, a work-action
    mask, the conditions its transition samples and, for every
    assignment of them, an exit-action mask and a next state — which is
    exactly the TRPLA: {!to_pla} prints one product term per table row.
    The controller can execute either that table or the PLA image; the
    test suite checks they agree cycle by cycle.

    Pass semantics follow the paper: in the first pass every failing
    row address is recorded in the TLB (mapped to the predetermined,
    strictly increasing spare sequence); in the second pass the remap
    is active, the array and the mapped spares are retested, and any
    mismatch raises "Repair Unsuccessful". *)

type hooks = {
  record_fault : row:int -> [ `Ok | `Full ];
      (** record a failing logical row; [`Full] = would overflow *)
  would_overflow : row:int -> bool;
      (** true when recording this (new) row would overflow the TLB *)
  enable_remap : unit -> unit;  (** install the TLB translation *)
  faults_recorded : unit -> int;
}

(** Hooks for a RAM with no repair logic at all (pure BIST): recording
    always overflows, so the first fault fails the run. *)
val no_repair_hooks : hooks

type outcome = Passed_clean | Repaired | Repair_unsuccessful

type t

(** Compile the controller for a march test over a given number of
    words and list of backgrounds.  A repeat compile of the last
    configuration compiled on this domain (equal march items, words
    and backgrounds) returns the same, immutable controller. *)
val compile :
  March.t -> words:int -> backgrounds:Bisram_sram.Word.t list -> t

(** Like {!compile} but with only the background {e count}: the FSM
    layout, PLA image and reports never consult the background values.
    For wide-word organizations ([bpw > Word.max_width]) whose
    backgrounds cannot be represented as packed words — layout/area
    flows only.  {!run}/{!run_via_pla} raise [Invalid_argument] on the
    result. *)
val compile_layout : March.t -> words:int -> n_backgrounds:int -> t

val state_count : t -> int
val flipflop_count : t -> int

(** Names of the FSM states in id order (for reports). *)
val state_names : t -> string array

type report = {
  outcome : outcome;
  cycles : int;  (** controller clock cycles consumed *)
  faults_recorded : int;
}

(** Execute the two-pass self-test/self-repair against the RAM model by
    walking the compiled state table: per cycle, the state's work mask,
    a bit test per sampled condition to index the assignment, then the
    exit mask ([Record_row] before [Addr_step]) and the next state.  The
    datapath compares packed ints through {!Bisram_sram.Model.read_int},
    so no per-cycle closure, list or word is built.  On an element's
    first op state, the clean-address loop read off the table (every
    sampled condition false) is fast-forwarded with
    {!Bisram_sram.Model.march_span} over the clean addresses before
    the element's last; the cycle count, address register and RAM end
    as if each cycle had been clocked.
    [hooks.would_overflow] is queried only after a failing pass-1 read.
    @raise Invalid_argument if a background's width is not the model's
    word width. *)
val run : t -> Bisram_sram.Model.t -> hooks -> report

(** Export the control program as TRPLA planes: one term per row of
    the compiled table, in state order. *)
val to_pla : t -> Trpla.t

(** Execute by evaluating the TRPLA image each cycle instead of the
    symbolic graph, with no fast-forward (slower; the reference {!run}
    is tested against, and the validation of the PLA compilation). *)
val run_via_pla : t -> Bisram_sram.Model.t -> hooks -> report

val pp_outcome : Format.formatter -> outcome -> unit
