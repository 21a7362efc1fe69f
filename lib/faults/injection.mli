(** Random fault injection for an array of [rows] x [cols] cells.

    A spot defect is mapped to a functional fault at a uniformly random
    cell; the fault class is drawn from a distribution representative of
    inductive fault analysis results (stuck-at faults dominate, coupling
    and retention faults form the tail). *)

type mix = {
  stuck_at : float;
  transition : float;
  stuck_open : float;
  coupling_inversion : float;
  coupling_idempotent : float;
  state_coupling : float;
  data_retention : float;
}
(** Relative weights of each fault class; need not sum to 1. *)

(** The default IFA-flavoured mix. *)
val default_mix : mix

(** Every weight on stuck-at faults: the classical row-kill model used
    for the paper's yield analysis (a defect makes one cell bad). *)
val stuck_at_only : mix

(** Every weight on data-retention faults: the coverage hole of a march
    without Wait items (MATS+ lets them escape). *)
val retention_only : mix

(** The mixes a configuration can name: ["default"], ["stuck-at"] and
    ["retention"]. *)
val named_mixes : (string * mix) list

(** @raise Invalid_argument when any weight is negative or NaN (the
    message names the offending key and its value), or when every
    weight is zero (the sampler would silently bias towards stuck-at
    faults otherwise).  Called by {!sampler}, so by [random_fault] and
    the [inject*] functions on every call; exposed so configuration
    front ends can fail fast. *)
val validate_mix : mix -> unit

(** The mix field name of a fault's class (["stuck_at"],
    ["transition"], …) — the key [validate_mix] diagnostics use. *)
val class_name : Fault.t -> string

(** Normalized class-draw probability of the given fault's class under
    the mix — the per-fault factor of an importance-sampling
    likelihood ratio. *)
val class_probability : mix -> Fault.t -> float

(** A validated mix, prepared for drawing: its class weights and their
    total, computed once.  Only {!sampler} makes one, so a draw from it
    needs no further check. *)
type sampler

(** @raise Invalid_argument as {!validate_mix}. *)
val sampler : mix -> sampler

(** [sample s rng ~rows ~cols ~n] draws [n] independent faults: the
    same faults from the same rng draws, in the same order, as
    [inject rng ~rows ~cols ~mix ~n] with the mix [s] was made from. *)
val sample :
  sampler -> Random.State.t -> rows:int -> cols:int -> n:int -> Fault.t list

(** [random_fault rng ~rows ~cols ~mix] draws one fault.  Coupling
    aggressors are drawn from the victim's neighbourhood (same column,
    adjacent row, or adjacent column) as physical adjacency dictates. *)
val random_fault :
  Random.State.t -> rows:int -> cols:int -> mix:mix -> Fault.t

(** [inject rng ~rows ~cols ~mix ~n] draws [n] independent faults. *)
val inject :
  Random.State.t -> rows:int -> cols:int -> mix:mix -> n:int -> Fault.t list

(** Defect count drawn from Poisson with the given mean. *)
val inject_poisson :
  Random.State.t -> rows:int -> cols:int -> mix:mix -> mean:float ->
  Fault.t list

(** Defect count drawn from the clustered (negative binomial) model. *)
val inject_clustered :
  Random.State.t -> rows:int -> cols:int -> mix:mix -> mean:float ->
  alpha:float -> Fault.t list

(** Rows containing at least one victim cell, deduplicated, sorted. *)
val faulty_rows : Fault.t list -> int list
