(** Spatial spot-defect model.

    Defects are discs with a position on the array footprint and a
    radius drawn from the classical 1/r^3 size distribution; every cell
    whose footprint the defect touches becomes faulty, and cells hit by
    the same defect are additionally bridged (coupling faults).  Large
    defects therefore kill clusters of adjacent cells — the physically
    clustered patterns row sparing is designed for, in contrast to the
    uniform single-cell model of {!Injection}. *)

type defect = {
  x : int;  (** centre, lambda from the array's lower-left corner *)
  y : int;
  radius : int;  (** lambda *)
}

(** Sample a radius from p(r) ~ 1/r^3 truncated to [r_min, r_max]. *)
val sample_radius : Random.State.t -> r_min:int -> r_max:int -> int

(** Cells (row, col) whose [cell_w] x [cell_h] footprint intersects the
    defect disc; clipped to the array. *)
val cells_hit :
  cell_w:int -> cell_h:int -> rows:int -> cols:int -> defect ->
  (int * int) list

(** Faults induced by one defect: a stuck-at per hit cell plus a
    coupling bridge between successive hit cells. *)
val faults_of_defect :
  Random.State.t -> cell_w:int -> cell_h:int -> rows:int -> cols:int ->
  defect -> Fault.t list

(** [inject rng ... ~mean ~alpha] — defect count from the clustered
    model, each mapped through geometry. *)
val inject :
  Random.State.t -> cell_w:int -> cell_h:int -> rows:int -> cols:int ->
  r_min:int -> r_max:int -> mean:float -> alpha:float -> Fault.t list

(** Rows with at least one victim (sorted, deduplicated). *)
val rows_hit : Fault.t list -> int list
