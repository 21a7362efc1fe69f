(** Statistical defect-count models.

    Manufacturing defects are counted per die either with a Poisson
    model or with Stapper's clustered (negative-binomial) model, which
    is the Gamma mixture of Poissons with clustering factor alpha. *)

(** [poisson rng lambda] samples a Poisson variate with mean [lambda]. *)
val poisson : Random.State.t -> float -> int

(** [gamma rng ~shape ~scale] samples a Gamma variate
    (Marsaglia-Tsang). [shape] > 0, [scale] > 0. *)
val gamma : Random.State.t -> shape:float -> scale:float -> float

(** [negative_binomial rng ~mean ~alpha] samples a defect count with
    mean [mean] and clustering factor [alpha] (small alpha = heavy
    clustering; alpha -> infinity recovers Poisson). *)
val negative_binomial : Random.State.t -> mean:float -> alpha:float -> int

(** [poisson_sampler lambda] is [fun rng -> poisson rng lambda] with
    [e^-lambda] (and the split above 30) computed once: the same
    counts from the same uniforms, consumed in the same order. *)
val poisson_sampler : float -> Random.State.t -> int

(** [negative_binomial_sampler ~mean ~alpha] is
    [fun rng -> negative_binomial rng ~mean ~alpha] with the Gamma
    constants computed once: the same counts, the same rng
    consumption. *)
val negative_binomial_sampler :
  mean:float -> alpha:float -> Random.State.t -> int

(** Probability mass function of the clustered count (exact, via log
    Gamma), useful for analytic cross-checks of the samplers. *)
val negative_binomial_pmf : mean:float -> alpha:float -> int -> float

val poisson_pmf : mean:float -> int -> float

(** Log-space pmfs, the numerically safe form for likelihood ratios
    (importance-sampling weights multiply many of them).  [mean = 0.0]
    is the degenerate point mass at 0: log pmf 0 at [k = 0] and
    [neg_infinity] elsewhere. *)
val poisson_log_pmf : mean:float -> int -> float

val negative_binomial_log_pmf : mean:float -> alpha:float -> int -> float

(** Lanczos log-Gamma (the kernel behind the pmfs), exposed for the
    estimator layer's Beta-function machinery. *)
val log_gamma : float -> float
