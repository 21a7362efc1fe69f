(** Functional march-test execution (the reference semantics).

    {!Controller} runs the same algorithm through the microprogrammed
    TRPLA datapath; this module executes it directly and is used for
    fault simulation, coverage evaluation and as the oracle the
    controller is checked against. *)

type failure = {
  background : Bisram_sram.Word.t;
  item : int;  (** index of the march item *)
  op : int;  (** index of the op within the element *)
  addr : int;
  expected : Bisram_sram.Word.t;
  got : Bisram_sram.Word.t;
}

type ram = {
  words : int;
  read : int -> Bisram_sram.Word.t;
  write : int -> Bisram_sram.Word.t -> unit;
  retention_wait : unit -> unit;
}
(** Abstract RAM access: lets the engine drive repair architectures
    other than the row-remapped {!Bisram_sram.Model} (the Section III
    baseline schemes divert individual words). *)

val ram_of_model : Bisram_sram.Model.t -> ram

(** [run_ram ram test ~backgrounds] applies the march once per
    background (no clearing), collecting every read mismatch.
    @raise Invalid_argument if the backgrounds, or the words the RAM
    returns, differ in width. *)
val run_ram :
  ram -> March.t -> backgrounds:Bisram_sram.Word.t list -> failure list

(** [run model test ~backgrounds] clears the RAM and applies the march
    test once per background, collecting every read mismatch.  [Either]
    order is executed ascending.  The RAM's remap (if installed) is in
    effect, so this runs both BIST passes depending on model state.
    The march compares packed ints through {!Bisram_sram.Model.read_int};
    words are built only for a mismatch.  Each element runs over clean
    words in {!Bisram_sram.Model.march_span}s, and per op on the
    address that stops a span.
    @raise Invalid_argument if a background's width is not the model's
    word width. *)
val run :
  Bisram_sram.Model.t ->
  March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  failure list

(** [passes model test ~backgrounds] = no failure; stops at the first
    mismatch, which is the production-line use. *)
val passes :
  Bisram_sram.Model.t ->
  March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  bool

(** Logical rows containing at least one failing address, in order of
    first detection. *)
val failing_rows : Bisram_sram.Org.t -> failure list -> int list

(** Total RAM operations the test performs:
    ops_per_address * words * #backgrounds. *)
val op_count : March.t -> Bisram_sram.Org.t -> backgrounds:int -> int
