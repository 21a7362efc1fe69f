(** ADDGEN: the test address generator.

    March elements need a forward and a reverse addressing sequence, so
    ADDGEN is a binary up/down counter over [0, limit).  The model is
    register-accurate: [step] advances one address per test clock and
    reports wrap-around (the element-done condition sampled by the
    controller). *)

type t

(** [create ~limit] counts over addresses [0 .. limit-1]. *)
val create : limit:int -> t

val limit : t -> int

(** Park the counter at the first address of the given direction
    (0 for [Up], limit-1 for [Down]). *)
val reset : t -> dir:March.order -> unit

val value : t -> int

(** Advance one step in the direction; returns [true] when the counter
    wrapped (all addresses visited). *)
val step : t -> dir:March.order -> bool

(** [advance t ~dir n] is [n] {!step}s, none of which wraps.
    @raise Invalid_argument if [n < 0] or one of them would wrap. *)
val advance : t -> dir:March.order -> int -> unit

(** Hardware cost of the counter: flip-flop count (address width). *)
val width : t -> int
