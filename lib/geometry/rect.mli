(** Axis-aligned rectangles on the integer grid.

    A rectangle is stored in normalized form: [x0 <= x1] and [y0 <= y1].
    Degenerate (zero-width or zero-height) rectangles are allowed; they
    are useful as port stubs on cell edges. *)

type t = private { x0 : int; y0 : int; x1 : int; y1 : int }

(** [make x0 y0 x1 y1] normalizes corner order. *)
val make : int -> int -> int -> int -> t

(** [of_size ~w ~h p] is the [w] x [h] rectangle with lower-left corner [p]. *)
val of_size : w:int -> h:int -> Point.t -> t

val width : t -> int
val height : t -> int
val area : t -> int
val center : t -> Point.t
val lower_left : t -> Point.t

val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val translate : Point.t -> t -> t
val transform : Orient.t -> t -> t

(** [inflate d r] grows [r] by [d] on every side (shrinks if negative). *)
val inflate : int -> t -> t

val contains_point : t -> Point.t -> bool
val contains : outer:t -> inner:t -> bool

(** Closed-region intersection test: shared edges count as intersecting. *)
val touches : t -> t -> bool

(** Open-region intersection test: shared edges do not count. *)
val overlaps : t -> t -> bool

val inter : t -> t -> t option

(** Smallest rectangle covering both arguments. *)
val join : t -> t -> t

(** Bounding box of a non-empty list. @raise Invalid_argument on []. *)
val bbox : t list -> t

(** [abuts a b] holds when [a] and [b] share a boundary segment of
    positive length but do not overlap — the contract between adjacent
    macrocells connected by abutment. *)
val abuts : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
