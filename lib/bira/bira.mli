(** The 2D built-in self-repair flow: detect → allocate → steer →
    verify, with iterated spare burning.

    This is the column-spare allocator of the one repair loop that also
    runs the row-TLB flow, {!Bisram_bisr.Repair.iterate}: detection
    collects a bounded per-cell fault list from the march comparator,
    an {!Cover.Allocator} picks the spare rows/columns, the allocation
    is armed as a row remap plus a column steering map, and a
    verification march retests through the repair.  A verification
    failure on a repaired line burns that line's spare (the spare
    itself is faulty) and reallocates; a failure elsewhere is a newly
    learned fault cell.  The flow is pure besides the model it drives,
    and deterministic for a given model state. *)

type strategy = Greedy | Essential | Exhaustive

val strategy_name : strategy -> string
(** ["bira-greedy"], ["bira-essential"], ["bira-bnb"] — the CLI and
    report spellings. *)

type alloc = {
  a_rows : int list;  (** logical rows replaced, ascending *)
  a_cols : int list;  (** regular physical columns replaced, ascending *)
}

type result = {
  b_outcome : Bisram_bisr.Repair.outcome;
      (** [Repaired rows] carries {!alloc.a_rows} (possibly [[]] for a
          column-only repair).  Allocation failure or fault-list
          overflow maps to [Too_many_faulty_rows]; [max_rounds] failed
          verify marches map to [Fault_in_second_pass]. *)
  b_alloc : alloc option;  (** the armed allocation, on success only *)
  b_rounds : int;
      (** verification marches executed — same metric as
          {!Bisram_bisr.Repair.iterated_result.i_rounds}: 1 for a clean
          array or a first-try repair, 0 when detection already proved
          the memory unrepairable. *)
}

(** [run ~fast strategy model march ~backgrounds] executes the flow and
    leaves the successful repair armed in the model (normal-mode
    accesses are diverted), mirroring {!Bisram_bisr.Repair.run}.
    [fast] selects the packed-word comparator analog for fault-list
    extraction; [fast:false] re-extracts bit by bit and is the
    reference side of the campaign's differential oracle.
    [max_rounds] defaults to 8, as in {!Bisram_bisr.Repair.iterate}. *)
val run :
  ?max_rounds:int ->
  fast:bool ->
  strategy ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  result

(** [run ~fast:true], plus whether the bit-by-bit extraction gave the
    same cells on every failure; if so, the run is [run ~fast:false]'s
    too, to the model state and access counts. *)
val run_checked :
  ?max_rounds:int ->
  strategy ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  result * bool
