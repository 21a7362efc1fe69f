(** Floorplan reporting: metrics and the ASCII rendering used to
    reproduce the layout plots of Figs. 6 and 7. *)

type t = {
  placement : Placer.result;
  rules : Bisram_tech.Rules.t;  (** the rules {!routing} routes under *)
}

(** Places the blocks; routing is left to {!routing}. *)
val make : Bisram_tech.Rules.t -> Block.t list -> t

(** The metal-3 routing of the placement, computed on each call: only
    the printed floorplan ({!pp}) reads it, and a design shared across
    domains holds no lazy value that two of them could force at once. *)
val routing : t -> Router.result

(** The paper's near-optimality measure: layout area over the sum of
    block areas, i.e. 1 + epsilon.  [epsilon] is reported. *)
val epsilon : t -> float

(** ASCII rendering of the placement, roughly [width] characters wide;
    each block is drawn as a box labelled with its name. *)
val render : ?width:int -> t -> string

val pp : Format.formatter -> t -> unit
