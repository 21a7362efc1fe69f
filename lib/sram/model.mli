(** Fault-aware behavioural model of the BISRAMGEN RAM array.

    The model covers the regular rows plus the spare rows, a per-I/O
    sense-amplifier residue (needed for the stuck-open read model), an
    optional row remap installed by the BISR logic, and a retention
    "wait" operation for IFA-9 data-retention testing.

    There is one cell store: a native int per (row, column-mux) word
    slot, bit [b] being I/O [b]'s cell, and an int per row for its
    spare-column cells.  {!set_faults} leaves per-slot read and write
    fault-bit masks: a bit marks an I/O whose cell carries read-side
    (stuck-open, state-coupling victim) or write-side (stuck-open,
    stuck-at, transition, coupling aggressor) machinery.  A slot with
    either mask non-zero is armed: only its masked bits take the
    per-cell path, the others are plain bits of the word.  Every other
    slot — on a clean row or next to an armed one, including coupling
    victims, retention cells and state-coupling aggressors — is served
    packed, a single array load/store of {!Word.to_int}/{!Word.of_int}.
    Column steering ({!set_col_remap}) serves a steered bit from the
    spare-column cells.  The sense residue is packed too, one bit per
    I/O: a packed read sets it to the word read, exactly what the
    per-bit path would leave, so a stuck-open cell elsewhere in the
    array does not slow other reads down.  Address and cell decoding
    go through per-model tables, so no access divides. *)

type t

(** @raise Invalid_argument when the organization is not
    {!Org.simulable} (bpw > [Word.max_width]). *)
val create : Org.t -> t
val org : t -> Org.t

(** Install functional faults (replaces any previous set).  Fault cells
    may lie in spare rows ([row < total_rows]). *)
val set_faults : t -> Bisram_faults.Fault.t list -> unit

(** [set_remap t f] installs a logical-row to physical-row translation
    (the TLB's output); [None] restores identity.  The map is read once,
    here: [f] is called once per regular row and tabulated, and no
    access calls it again, so an installer whose map changes must
    install it again (the row TLB is re-armed after every round it
    learns).  Rows outside [0 .. total_rows - 1] are accepted here and
    refused by the access that reaches them.  If [f] raises, no map
    stays armed. *)
val set_remap : t -> (int -> int) option -> unit

(** [set_col_remap t f] installs a physical-column steering map (the 2D
    BIRA allocation's output): a word access to mux position [col]
    resolves bit [b] at physical column [f (b*bpc + col)] instead of
    [b*bpc + col].  Spare columns occupy physical columns
    [cols .. total_cols - 1].  The map is validated and tabulated once
    here, so [f] is never called again: per column-mux position, the
    I/O bits whose column is steered away from itself.  A slot with no
    steered bit keeps its unsteered access (packed or fault-masked).  A
    steered unarmed slot whose steered bits all land on spare-column
    cells without fault machinery is the packed word with those bits
    replaced by the spare cells; any other steered slot resolves every
    bit through the map, I/O 0 first.  [None], or a map that steers no
    column, restores identity.
    @raise Invalid_argument if the map sends any regular column outside
    [0 .. total_cols - 1]; the previous map then stays armed. *)
val set_col_remap : t -> (int -> int) option -> unit

(** Word access through the addressing logic (column mux + remap).
    A read of an unarmed, unsteered slot is one packed load, and it
    leaves that word as the sense residue; a read of an armed slot
    resolves bit by bit, I/O 0 first, and a stuck-open cell returns
    its I/O's residue.
    @raise Invalid_argument if the address is out of range or the word
    width mismatches. *)
val read_word : t -> int -> Word.t

val write_word : t -> int -> Word.t -> unit

(** {!read_word}/{!write_word} on the packed value ({!Word.to_int}):
    the allocation-free form the BIST engine, the controller datapath
    and the escape sweep use.  The word wrappers are these plus a
    width check and a {!Word.of_int}.
    @raise Invalid_argument if the address is out of range, or if the
    written value has bits at or above [bpw]. *)
val read_int : t -> int -> int

val write_int : t -> int -> int -> unit

(** [march_span ?alt t ~up ~first ~count ~is_write ~op_word] applies
    one march element — op [i] writes [op_word.(i)] if [is_write.(i)],
    else reads and compares against it — to up to [count] consecutive
    addresses from [first], ascending if [up], and returns how many
    addresses it completed.  [alt] (default 0) is a parity mask: at an
    odd address every op word is [op_word.(i) lxor alt] (the escape
    sweep's checkerboards), so the words an element reads, writes and
    leaves as the residue alternate along the run.  A fault-armed
    row's unarmed slots are run through like a clean row's (a row armed
    only by retention cells or coupling victims in full), and so is an
    armed slot whose masked cells carry only stuck-at, transition and
    stuck-open faults: the element's ops run on its word a word at a
    time, pinned and open bits kept, blocked transitions held, open
    bits read from the running sense residue, and the address commits
    only if every read matches.  The run stops before the first
    address whose physical row (through the remap) is out of range,
    whose slot holds a coupling aggressor or state-coupling victim bit,
    whose mux position is steered by the column map, or on which a read
    mismatches; that address is left untouched for
    {!read_int}/{!write_int}.  The cells, the written-row marks, the
    sense residue and every {!stats} counter end exactly as the per-op
    accesses would leave them: an armed slot's ops count as reads and
    writes only, as on the per-op path, and not in [s_fast_*] or
    [s_armed_packed].  Returns 0 while the fast path is off, or when an
    op word or [alt] is wider than [bpw].
    @raise Invalid_argument if the two arrays differ in length. *)
val march_span :
  ?alt:int ->
  t ->
  up:bool ->
  first:int ->
  count:int ->
  is_write:bool array ->
  op_word:int array ->
  int

(** Direct physical-row access, bypassing the remap (used to test spare
    rows and by white-box tests). *)
val read_row_word : t -> row:int -> col:int -> Word.t

val write_row_word : t -> row:int -> col:int -> Word.t -> unit

(** Retention wait: every data-retention-faulty cell decays. *)
val retention_wait : t -> unit

(** Number of word reads/writes performed so far (test-length metric). *)
val reads : t -> int

val writes : t -> int

type stats = {
  s_reads : int;  (** word reads (= {!reads}) *)
  s_writes : int;  (** word writes (= {!writes}) *)
  s_fast_reads : int;
      (** reads of rows with no armed fault machinery on the packed
          path (a steered word's steered bits come from spare-column
          cells) *)
  s_fast_writes : int;
      (** writes to rows with no armed fault machinery on the packed
          path *)
  s_armed_packed : int;
      (** word ops on fault-armed rows that the packed path served
          (their unarmed slots, steered ones included), spans
          included *)
  s_rows_cleared : int;  (** dirty rows zeroed by {!clear} *)
}

(** Access-path counters since creation.  [s_fast_*] keep meaning
    "rows with no armed machinery", so traffic on fault-armed rows is
    [s_reads - s_fast_reads] / [s_writes - s_fast_writes], of which
    [s_armed_packed] ops were packed loads or stores.  These are
    plain per-model ints (no global telemetry involved); the campaign
    flushes them into the {!Bisram_obs.Obs} registry per trial. *)
val stats : t -> stats

(** Forget all stored data (power-up state: zeros, pinned cells at their
    stuck value); counters and faults are preserved.  Only rows written
    since the previous clear (plus fault-armed rows) are touched. *)
val clear : t -> unit

(** Testing seam: [set_fast_path t false] forces every access through
    the per-cell fault machinery, on every bit, even on fault-free
    rows.  It switches the access path only; the cells stay where they
    are, so a switch mid-stream is silent.  The fast path (on by
    default) is observationally equivalent — the [test_sram] qcheck
    properties hold the two paths against each other — so this is only
    for differential tests. *)
val set_fast_path : t -> bool -> unit
