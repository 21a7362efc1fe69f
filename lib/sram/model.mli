(** Fault-aware behavioural model of the BISRAMGEN RAM array.

    The model covers the regular rows plus the spare rows, a per-I/O
    sense-amplifier residue (needed for the stuck-open read model), an
    optional row remap installed by the BISR logic, and a retention
    "wait" operation for IFA-9 data-retention testing.

    There is one cell store: a native int per (row, column-mux) word
    slot, bit [b] being I/O [b]'s cell, and an int per row for its
    spare-column cells.  {!set_faults} fills one fault table: on each
    fault-armed row, per word slot (and for the row's spare word), one
    mask per fault kind (stuck-open, no-rise, no-fall, stuck-at,
    state-coupling victim, coupling aggressor) and their OR.  A slot
    whose OR is non-zero is armed: only the bits with read-side
    (stuck-open, victim) or write-side (stuck-open, stuck-at,
    transition, aggressor) machinery take the per-cell path, the others
    are plain bits of the word.  Every other
    slot — on a clean row or next to an armed one, including coupling
    victims, retention cells and state-coupling aggressors — is served
    packed, a single array load/store of {!Word.to_int}/{!Word.of_int}.
    Column steering ({!set_col_remap}) serves a steered bit from the
    spare-column cells, packed too while the word is plain.  The sense
    residue is packed too, one bit per I/O: a packed read sets it to
    the word read, exactly what the per-bit path would leave, so a
    stuck-open cell elsewhere in the array does not slow other reads
    down.  Address and cell decoding
    go through per-model tables, so no access divides.

    Fault-free rows are lazy (see {!clear}): between clears, a row that
    only whole march elements have touched stores no words and holds
    the last element's image, and {!march_span} passes a run of such
    rows in one step.  Any other access writes them out first, so
    laziness is invisible to every reader. *)

type t

(** @raise Invalid_argument when the organization is not
    {!Org.simulable} (bpw > [Word.max_width]). *)
val create : Org.t -> t
val org : t -> Org.t

(** Install functional faults (replaces any previous set).  Fault cells
    may lie in spare rows ([row < total_rows]) and spare columns
    ([col < total_cols]).
    @raise Invalid_argument if any cell of the list lies outside the
    array; every cell is checked first, so the previous set then stays
    armed and the model unchanged. *)
val set_faults : t -> Bisram_faults.Fault.t list -> unit

(** [set_remap t f] installs a logical-row to physical-row translation
    (the TLB's output); [None] restores identity.  The map is read once,
    here: [f] is called once per regular row and tabulated, and no
    access calls it again, so an installer whose map changes must
    install it again (the row TLB is re-armed after every round it
    learns).  Rows outside [0 .. total_rows - 1] are accepted here and
    refused by the access that reaches them.  If [f] raises, no map
    stays armed.  Installed between march elements, a map keeps lazy
    (see {!clear}) each lazy row it still reaches from exactly one
    logical row and writes the others out; the rows it newly reaches
    stay eager until the next {!clear}.  Installed while an element has
    lazy rows still to pass, it writes every lazy row out.  [None]
    while no map is armed changes nothing. *)
val set_remap : t -> (int -> int) option -> unit

(** [set_col_remap t f] installs a physical-column steering map (the 2D
    BIRA allocation's output): a word access to mux position [col]
    resolves bit [b] at physical column [f (b*bpc + col)] instead of
    [b*bpc + col].  Spare columns occupy physical columns
    [cols .. total_cols - 1].  The map is validated and tabulated
    here, [f] called at most twice per regular column and never again:
    per column-mux position, the I/O bits whose column is steered away
    from itself, the spare columns they land on, and their (I/O, spare
    column) pairs.  A slot with no steered bit keeps its unsteered
    access (packed or fault-masked).  A steered slot is plain when each
    steered bit lands on a spare column of its own, every armed cell of
    its own slot is one the map steers away (no steered access touches
    it), and the spare-column cells it lands on carry no fault
    machinery: it is then the packed word with the steered bits
    gathered from, and scattered to, those spare cells.  Any other
    steered slot resolves every bit through the map, I/O 0 first.
    [None], or a map that steers no column, restores identity.
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
    only if every read matches.  While a column map is armed the run
    goes word by word, and a plain steered slot (see {!set_col_remap})
    is run through as its gathered word, the element's final write
    scattered back.  The run stops before the first address whose
    physical row (through the remap) is out of range, whose unsteered
    slot holds a coupling aggressor or state-coupling victim bit, whose
    steered slot is not plain, or on which a read mismatches; that
    address is left untouched for {!read_int}/{!write_int}.  The cells,
    the written-row marks, the sense residue and every {!stats} counter
    end exactly as the per-op accesses would leave them: an armed
    slot's ops count as reads and writes only, as on the per-op path,
    and not in [s_fast_*] or [s_armed_packed]; a plain steered slot's
    count as packed, in [s_fast_*] on a clean row and in
    [s_armed_packed] on a fault-armed one.  Returns 0 while the fast
    path is off, or when an op word or [alt] is wider than [bpw].

    Lazy rows (see {!clear}) are passed a run at a time, in one step,
    when the call is an element's first (its first address, every
    address left) or its continuation (the same op words, parity and
    direction, resuming where the last span ended or, if it stopped
    there, at the next address), the run's rows enter whole, and the
    element's first reads match the lazy rows' image.  An element's
    first call settles the previous one: if that passed every lazy
    row, its final write becomes the image; if not, the lazy rows are
    written out.  Any other call, a read that disagrees with the image
    and a run cut short by [count] write every lazy row out first,
    and the span goes on through those rows as through any eager row.
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
          path, spans included (a plain steered word's steered bits
          come from spare-column cells) *)
  s_fast_writes : int;
      (** writes to rows with no armed fault machinery on the packed
          path, spans included *)
  s_armed_packed : int;
      (** word ops on fault-armed rows that the packed path served:
          their unarmed slots, and their plain steered ones, whose
          armed cells are all steered away; spans included *)
  s_rows_cleared : int;  (** dirty rows zeroed by {!clear} *)
}

(** Access-path counters since creation.  [s_fast_*] keep meaning
    "rows with no armed machinery", so traffic on fault-armed rows is
    [s_reads - s_fast_reads] / [s_writes - s_fast_writes], of which
    [s_armed_packed] ops were packed loads or stores.  A lazy row's
    ops count as the packed ops on a clean row they stand for, and
    [s_rows_cleared] counts a lazy row an element wrote as the dirty
    row it would have been.  These are
    plain per-model ints (no global telemetry involved); the campaign
    flushes them into the {!Bisram_obs.Obs} registry per trial. *)
val stats : t -> stats

(** Forget all stored data (power-up state: zeros, pinned cells at their
    stuck value); counters and faults are preserved.  Only rows written
    since the previous clear (plus fault-armed rows) are touched.

    Then every row that is unarmed, reached by exactly one logical row
    of the row map and holds no state-coupling aggressor goes lazy,
    while the fast path is on, no column map is armed and [bpc] is
    even: it stores no words, and holds the march's image, the last
    whole element's final write (with its parity mask on the odd
    columns), or the image before that until the element in flight
    passes it.  A per-op access or cell-level store on a lazy row,
    {!set_col_remap} with a map that steers a column,
    {!set_fast_path} and {!set_faults} first write every lazy row out,
    with the words and written marks the eager path would have left,
    and end laziness until the next [clear]. *)
val clear : t -> unit

(** How many physical rows are lazy right now (see {!clear}): a seam
    for tests and profiling, it changes nothing. *)
val lazy_rows : t -> int

(** Testing seam: [set_fast_path t false] forces every access through
    the per-cell fault machinery, on every bit, even on fault-free
    rows.  It switches the access path only; the cells stay where they
    are, so a switch mid-stream is silent.  The fast path (on by
    default) is observationally equivalent — the [test_sram] qcheck
    properties hold the two paths against each other — so this is only
    for differential tests. *)
val set_fast_path : t -> bool -> unit
