(** Rare-event estimation over campaign results.

    Three layers on top of {!Campaign}:

    - binomial confidence intervals (Wilson and Clopper-Pearson) on
      the escape and repair-failure rates of any campaign result,
      importance-weighted results included (weighted tallies enter
      through effective counts);
    - an adaptive driver ({!run_adaptive}): one campaign with a
      stopping rule that ends it once the Wilson interval's relative
      half-width on a chosen metric reaches a target;
    - the schema-[bisram-campaign/3] report: the /2 document with a
      [confidence] section always appended, plus [estimation] /
      [adaptive] sections when biased sampling or adaptive stopping
      were in play.

    All interval math is self-contained and deterministic, so reports
    stay byte-identical at every jobs / lanes combination. *)

type interval = { lo : float; hi : float }

(** Inverse standard normal CDF (Acklam's rational approximation,
    absolute error < 1.3e-9).  @raise Invalid_argument outside (0,1). *)
val normal_quantile : float -> float

(** Regularized incomplete beta function I_x(a, b) (continued
    fraction).  @raise Invalid_argument unless [a, b > 0]. *)
val reg_inc_beta : a:float -> b:float -> float -> float

(** Inverse of {!reg_inc_beta} in x, by bisection (monotone, exact to
    float resolution on [0,1]). *)
val beta_inv : a:float -> b:float -> float -> float

(** Wilson score interval for [k] successes in [n] trials at the given
    two-sided [level] (default 0.95).  Real-valued counts are allowed
    (effective counts from weighted tallies); [n = 0] gives [0, 1].
    @raise Invalid_argument unless [0 <= k <= n] and [level] in (0,1). *)
val wilson : ?level:float -> k:float -> n:float -> unit -> interval

(** Clopper-Pearson (exact) interval, generalized to real-valued
    counts through the beta quantiles.  Same contract as {!wilson}. *)
val clopper_pearson : ?level:float -> k:float -> n:float -> unit -> interval

(** Which campaign failure rate is being estimated.  [Escape] counts
    trials with at least one silent escape in either flow;
    the repair-failure metrics count trials whose final outcome was
    [too_many_faulty_rows] or [fault_in_second_pass]. *)
type metric = Escape | Repair_failure_two_pass | Repair_failure_iterated

val metric_name : metric -> string

type estimate = {
  e_metric : metric;
  e_rate : float;  (** unbiased estimate of the nominal probability *)
  e_hits : int;  (** raw trials where the indicator fired *)
  e_trials : int;  (** raw trials aggregated *)
  e_k_eff : float;  (** effective success count fed to the intervals *)
  e_n_eff : float;  (** effective trial count fed to the intervals *)
  e_level : float;
  e_wilson : interval;
  e_clopper_pearson : interval;
}

(** Point estimate and intervals for one metric of a result.  For an
    unweighted result the effective counts are the raw ones; for a
    weighted result they are [S1^2/S2] and [N*S1/S2] (S1, S2 the sums
    of hit weights and squared hit weights), which keep the point
    estimate and match the delta-method variance of the
    importance-sampling estimator; all-weights-1 reduces exactly to
    the raw counts. *)
val estimate : ?level:float -> Campaign.result -> metric -> estimate

(** Relative half-width of the estimate's Wilson interval —
    [(hi - lo) / (2 * rate)], the adaptive stopping statistic;
    [infinity] while the rate is zero. *)
val rel_half_width : estimate -> float

type stop_reason =
  | Target_reached  (** relative half-width <= target *)
  | Trial_cap  (** [max_trials] exhausted first *)
  | Interrupted  (** the run was truncated (budget or [should_stop]) *)

val stop_reason_name : stop_reason -> string

type adaptive = {
  a_result : Campaign.result;  (** the campaign over all batches *)
  a_target : float;
  a_metric : metric;
  a_batch : int;
  a_batches : int;  (** batches the trials span, the last possibly partial *)
  a_reason : stop_reason;
  a_rel_half_width : float;  (** achieved value at stop *)
}

(** One {!Campaign.run} of up to [max_trials] (default 1_000_000)
    trials with a stopping rule: every [batch] trials (default 992 =
    16 full 62-wide lane batches) the Wilson relative half-width on
    [metric] (default [Repair_failure_two_pass]) is evaluated on the
    trials so far, and the campaign stops once it reaches [target].
    It also stops at [max_trials], or when the budget
    ([cfg.max_seconds], one budget for the whole run) or
    [should_stop] cuts it short — then [Interrupted], and the result
    is truncated.  A stop on target reads, report and all, byte for
    byte as a single fixed-trial run of the same size.
    [now], [jobs], [lanes], [should_stop], [trial_deadline] pass
    through to {!Campaign.run}.  Checkpointing is not supported under
    adaptive stopping.

    [on_progress] passes through to {!Campaign.run}; [p_total] is
    [max_trials] (the only total known up front).
    [on_batch] fires after each batch's CI evaluation with the batch
    count, cumulative trials and the achieved relative half-width —
    the seam the CLI uses to surface the stopping statistic live.  It
    runs where {!Campaign.run}'s stopping rule does (under the fold's
    lock, possibly on a worker domain), so it must be domain-safe.
    Both are write-only side channels: reports are identical with or
    without them.
    @raise Invalid_argument unless [target > 0], [batch >= 1],
    [max_trials >= 1] and [level] in (0,1). *)
val run_adaptive :
  ?now:(unit -> float) ->
  ?jobs:int ->
  ?lanes:int ->
  ?should_stop:(unit -> bool) ->
  ?trial_deadline:float ->
  ?batch:int ->
  ?metric:metric ->
  ?max_trials:int ->
  ?level:float ->
  ?on_progress:(Campaign.progress -> unit) ->
  ?on_batch:(batches:int -> trials:int -> rel_half_width:float -> unit) ->
  target:float ->
  Campaign.config ->
  adaptive

(** The [confidence] report section: interval estimates for all three
    metrics at [level] (default 0.95). *)
val confidence_json : ?level:float -> Campaign.result -> Bisram_obs.Json.t

(** The schema-[bisram-campaign/3] report: {!Campaign.to_json} with the
    schema field rewritten and [confidence] (always), [estimation]
    (when the result is weighted) and [adaptive] (when given) sections
    appended — a strict superset of the /2 document. *)
val report_json :
  ?level:float -> ?adaptive:adaptive -> Campaign.result -> Bisram_obs.Json.t

val report_string : ?level:float -> ?adaptive:adaptive -> Campaign.result -> string

val pretty_report_string :
  ?level:float -> ?adaptive:adaptive -> Campaign.result -> string
