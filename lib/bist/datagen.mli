(** DATAGEN: the test data-background generator and comparator.

    A Johnson (twisted-ring) counter of [bpw] stages steps through
    2*bpw states; the half-cycle from all-0 to all-1 yields the
    "blanket" background set all-0, 10...0, 110...0, ..., all-1.  The
    paper applies bpw/2 + 1 of these states ([required_backgrounds]);
    the full half-cycle set ([half_cycle_backgrounds]) gives every
    adjacent-pair both polarities and is what the coverage experiments
    use for wide words.

    DATAGEN also performs read comparison (XOR per bit, OR-reduced). *)

type t

(** @raise Invalid_argument unless [0 < bpw <= Word.max_width]: the
    counter state is packed into one native int, like {!Word}. *)
val create : bpw:int -> t
val bpw : t -> int

val reset : t -> unit
(** back to all-0 *)

val state : t -> Bisram_sram.Word.t

(** One Johnson-counter clock: shift right, complement of last bit into
    bit 0 (so the pattern of 1s grows from bit 0). *)
val step : t -> unit

(** The paper's background count: bpw/2 + 1. *)
val required_count : bpw:int -> int

(** The backgrounds BISRAMGEN applies (length = required_count):
    every second half-cycle state, always beginning with all-0 and
    ending with all-1. *)
val required_backgrounds : bpw:int -> Bisram_sram.Word.t list

(** All bpw+1 half-cycle states: all-0, 1, 11, ..., all-1. *)
val half_cycle_backgrounds : bpw:int -> Bisram_sram.Word.t list

(** [matches ~expected ~got] is the comparator: true when equal. *)
val matches :
  expected:Bisram_sram.Word.t -> got:Bisram_sram.Word.t -> bool
