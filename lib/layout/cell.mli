(** Leaf cells: flat geometry plus ports, in lambda units.

    A leaf cell's bounding box is its abutment box — tiling places
    cells so abutment boxes touch exactly.  Geometry may extend to the
    abutment box edge (shared diffusion/well between mirrored
    neighbours is normal). *)

type t = {
  name : string;
  bbox : Bisram_geometry.Rect.t;
  shapes : (Bisram_tech.Layer.t * Bisram_geometry.Rect.t) list;
  ports : Port.t list;
}

(** [make ~name ~w ~h shapes ports] — abutment box is [0,0]-[w,h]. *)
val make :
  name:string -> w:int -> h:int ->
  (Bisram_tech.Layer.t * Bisram_geometry.Rect.t) list -> Port.t list -> t

val width : t -> int
val height : t -> int
val area : t -> int

val transform : Bisram_geometry.Transform.t -> t -> t
val translate : Bisram_geometry.Point.t -> t -> t

(** Move the cell so its abutment box's lower-left corner is at the
    origin. *)
val normalize : t -> t

val find_port : t -> string -> Port.t option
val shapes_on : t -> Bisram_tech.Layer.t -> Bisram_geometry.Rect.t list

(** Same-layer min-width and spacing DRC over the cell's own shapes. *)
val drc : Bisram_tech.Rules.t -> t -> string list

(** Merge several (already placed) cells into one flat cell. *)
val merge : name:string -> t list -> t

val pp : Format.formatter -> t -> unit
