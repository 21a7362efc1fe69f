(** The eight planar orientations of a macrocell (the dihedral group D4).

    Names follow the usual layout convention: [Rn] is a counter-clockwise
    rotation by [n] degrees; [Mx] mirrors about the x axis (flips y);
    [My] mirrors about the y axis (flips x); [Mx90]/[My90] are a mirror
    followed by a 90-degree rotation. *)

type t = R0 | R90 | R180 | R270 | Mx | Mx90 | My | My90

val all : t list

(** [compose a b] is the orientation "first apply [b], then [a]". *)
val compose : t -> t -> t

val inverse : t -> t

(** Apply an orientation to a point (about the origin). *)
val apply : t -> Point.t -> Point.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option
