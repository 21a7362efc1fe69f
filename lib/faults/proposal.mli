(** Biased sampling proposals for rare-event campaign estimation.

    A proposal biases the per-trial fault draw — the fault count, the
    class mix, or both — towards the rare failing region, and supplies
    the likelihood ratio [w = p(trial) / q(trial)] that makes
    [w]-weighted tallies unbiased estimates of the nominal escape /
    repair-failure probabilities (importance sampling).  The identity
    proposal reproduces the nominal sampler byte-for-byte, including
    its rng consumption order, so replay and checkpoint determinism
    are preserved. *)

(** The campaign's nominal fault-count model. *)
type count_model =
  | Uniform of int  (** uniform mode: exactly [n] faults per trial *)
  | Poisson of float  (** Poisson defect counts with the given mean *)
  | Clustered of { mean : float; alpha : float }
      (** Stapper clustered (negative-binomial) counts *)

(** How the proposal biases the fault count. *)
type count_proposal =
  | Count_nominal  (** draw from the nominal count model *)
  | Scaled of { scale : float; shift : float }
      (** importance sampling: draw the count from the nominal family
          with mean [nominal_mean * scale + shift] (Poisson or
          clustered modes only) *)
  | Stratified of { nonzero : float }
      (** two-stratum mixture: with probability [nonzero] draw the
          nominal count conditioned on [n >= 1] (inverse-CDF), else
          [n = 0].  Weights are the constant per-stratum ratios
          [p(0)/(1-nonzero)] and [(1-p(0))/nonzero]. *)

type t = {
  count : count_proposal;
  mix : Injection.mix option;
      (** [Some q] draws fault classes from [q] instead of the nominal
          mix, contributing per-fault ratio factors; [None] keeps the
          nominal mix (ratio factor 1). *)
}

(** The identity proposal: nominal count, nominal mix, weight 1. *)
val nominal : t

val is_nominal : t -> bool

(** Validate a proposal against the nominal distribution it will be
    weighted with.

    @raise Invalid_argument naming the offending key when: a scale /
    shift / nonzero parameter is non-finite or out of range
    ([scale > 0], [shift >= 0], [0 < nonzero < 1]); the count proposal
    is non-trivial but the count model is [Uniform], or is stratified
    with [P(n >= 1) = 0]; either mix fails
    {!Injection.validate_mix}; or the proposal mix gives zero weight
    to a class the nominal mix draws (unbounded weights). *)
val validate : nominal_mix:Injection.mix -> count_model -> t -> unit

(** A validated proposal, prepared for drawing: its count draw and
    class draw with every configuration constant computed once (the
    class weights and their total, Poisson's [e^-lambda], the Gamma
    constants, the stratified [p(0)]).  Only {!sampler} makes one. *)
type sampler

(** [sampler p ~count ~mix] checks [p] as {!validate} does, then
    prepares it.  A campaign makes one per run.
    @raise Invalid_argument as {!validate}. *)
val sampler : t -> count:count_model -> mix:Injection.mix -> sampler

(** [sample s rng ~rows ~cols] draws one trial's fault list: the same
    faults, from the same rng draws in the same order, as {!draw} with
    the proposal, count model and mix [s] was made from. *)
val sample : sampler -> Random.State.t -> rows:int -> cols:int -> Fault.t list

(** [draw p ~count ~mix rng ~rows ~cols] draws one trial's fault list
    from the proposal distribution.  With [p = nominal] this consumes
    [rng] exactly like drawing the count from [count] and injecting
    with [mix] — byte-identical to the unbiased sampler.  It prepares
    the draw on every call, checking the mix it draws from
    ({!Injection.validate_mix}). *)
val draw :
  t ->
  count:count_model ->
  mix:Injection.mix ->
  Random.State.t ->
  rows:int ->
  cols:int ->
  Fault.t list

(** Log likelihood ratio [log (p(faults) / q(faults))] of a drawn
    trial: the count term plus one class-probability term per fault.
    Positions and per-class parameters cancel.  [neg_infinity] (weight
    0) when the nominal distribution cannot produce the trial. *)
val log_weight : t -> count:count_model -> mix:Injection.mix -> Fault.t list -> float

(** [exp (log_weight ...)]; exactly [1.0] for the identity proposal. *)
val weight : t -> count:count_model -> mix:Injection.mix -> Fault.t list -> float
