(** A CMOS process binds the lambda-based rule deck to physical units
    and carries the electrical deck.

    The paper's user chooses among 3-metal, 1-poly processes with feature
    widths of 0.5 um and above: CDA.5u3m1p, CDA.7u3m1p and the MOSIS
    mos.6u3m1pHP.  We model those three plus a convenience constructor. *)

type t = {
  name : string;
  feature_nm : int;  (** drawn minimum feature (gate length), nm *)
  lambda_nm : int;  (** lambda = feature / 2, nm *)
  metal_layers : int;
  poly_layers : int;
  rules : Rules.t;
  electrical : Electrical.t;
}

val cda_05u3m1p : t
val cda_07u3m1p : t

val all : t list
val find : string -> t option

(** [custom ~name ~feature_nm ~metal_layers ()] builds a process with the
    SCMOS deck and generic 5 V electricals. *)
val custom : name:string -> feature_nm:int -> metal_layers:int -> unit -> t

(** BISRAMGEN needs >= 3 metal layers (over-the-cell routing). *)
val supports_bisr : t -> bool

(** Convert a dimension in lambda to nanometers. *)
val nm_of_lambda : t -> int -> int

(** Convert a dimension in lambda to micrometers. *)
val um_of_lambda : t -> int -> float

(** Area of a [w] x [h] lambda box in mm^2. *)
val mm2_of_lambda_area : t -> int -> int -> float

val pp : Format.formatter -> t -> unit
