(** Monte Carlo test-and-repair campaigns: the adversarial stress layer
    over the whole BIST/BISR flow.

    Each trial draws a random fault set (uniform count, Poisson or
    clustered), runs the microprogrammed controller
    ({!Bisram_bisr.Repair.run}) against the functional reference
    engine as a differential oracle, runs the iterated 2k-pass flow for
    the repair-effort histogram (one engine run yields both, see
    {!Bisram_bisr.Repair.run_flows}), and then sweeps the post-repair
    array independently ({!Sweep}) for silent escapes — cells still
    faulty at a logical address although the flow said [Passed_clean]
    or [Repaired].

    Reproducibility discipline: every trial has its own integer seed
    derived from the campaign seed; any failing trial can be re-run in
    isolation with {!replay}.  Failing fault sets are shrunk by greedy
    delta debugging ({!Shrink}) to minimal reproducers before they are
    reported.  The whole campaign is deterministic: the same config
    yields a byte-identical JSON report, at any [jobs] count — trials
    are fanned out over domains but merged in trial-index order.

    Telemetry: when {!Bisram_obs.Obs.set_enabled} is on, every trial
    records phase spans (["trial"] > ["inject"] / ["march"] /
    ["repair"] / ["escape-sweep"], plus ["oracle"] under BIRA and
    ["shrink"] per failure), deterministic counters and histograms
    ([campaign.trials], [campaign.escapes], [model.fast_reads] …,
    [campaign.cycles]) and per-worker pool utilization
    ([pool.workerN.busy_ns] …).  When {!Bisram_obs.Obs.set_event_level}
    is on, the run also emits leveled events into the same registry:
    [run.start] / [run.end], per-anomaly [trial.escape] /
    [trial.divergence] / [trial.tool_error] and, under BIRA,
    [trial.bira_alloc] (emitted in trial order by {!run}'s fold),
    [checkpoint.write], pool [pool.retry] / [pool.job_failed] and
    [chaos.inject].  Telemetry and events are
    strictly write-only side channel state: nothing they record feeds
    {!to_json}, so reports are byte-identical with either on or off. *)

(** The per-trial fault-count model: {!Bisram_faults.Proposal}'s count
    model, which the proposal layer biases and weights. *)
type mode = Bisram_faults.Proposal.count_model =
  | Uniform of int  (** exactly n faults per trial *)
  | Poisson of float  (** Poisson-distributed count with the given mean *)
  | Clustered of { mean : float; alpha : float }
      (** negative-binomial (clustered) count *)

(** Per-trial repair architecture.  [Row_tlb] is the paper's row-only
    TLB flow (the default, and the only flow with a microprogrammed
    controller); [Bira s] runs the 2D spare-row + spare-column flow of
    {!Bisram_bira.Bira} with allocator [s], holding the packed-word
    comparator analog against the bit-by-bit reference as the
    differential oracle. *)
type repair = Trial.repair = Row_tlb | Bira of Bisram_bira.Bira.strategy

val repair_name : repair -> string
(** ["row-tlb"], ["bira-greedy"], ["bira-essential"], ["bira-bnb"] —
    the CLI and report spellings. *)

(** Every repair architecture, in documentation order. *)
val repairs : repair list

(** The architecture whose {!repair_name} is the given string. *)
val repair_of_name : string -> repair option

type config = Trial.config = {
  org : Bisram_sram.Org.t;
  march : Bisram_bist.March.t;
  mix : Bisram_faults.Injection.mix;
  mode : mode;
  proposal : Bisram_faults.Proposal.t option;
      (** biased trial sampling for rare-event estimation; [None] =
          nominal draws, weight 1 everywhere (identity proposals are
          normalized to [None] by {!make_config}) *)
  repair : repair;
  trials : int;
  seed : int;
  max_seconds : float option;
      (** wall-clock budget, finite and > 0; [None] = unbounded *)
  shrink : bool;  (** delta-debug failing fault sets *)
  max_rounds : int;  (** iterated-flow bound *)
}

(** Defaults: 64x8 words, bpc 4, 4 spares, IFA-9, default mix, 2 faults
    per trial, 100 trials, seed 42, no proposal, no time budget,
    shrinking on, 8 rounds.  @raise Invalid_argument on negative
    counts, a negative or non-finite mean, a non-positive or non-finite
    alpha, a [max_seconds] that is not finite and > 0, an invalid mix,
    or a proposal that fails {!Bisram_faults.Proposal.validate} against
    the mode and mix. *)
val make_config :
  ?org:Bisram_sram.Org.t ->
  ?march:Bisram_bist.March.t ->
  ?mix:Bisram_faults.Injection.mix ->
  ?mode:mode ->
  ?proposal:Bisram_faults.Proposal.t ->
  ?repair:repair ->
  ?trials:int ->
  ?seed:int ->
  ?max_seconds:float ->
  ?shrink:bool ->
  ?max_rounds:int ->
  unit ->
  config

(** The derived per-trial seed (pure function of campaign seed and
    trial index — the value printed in reports and fed to [--replay]). *)
val trial_seed : config -> int -> int

(** The most trials one pool item of {!run} may cover, and its default:
    the lane width {!Bisram_sram.Word.max_width} (one trial per bit of a
    native int). *)
val max_lanes : int

type flow = Trial.flow = Two_pass | Iterated

val flow_name : flow -> string

type anomaly = Trial.anomaly =
  | Escape of { flow : flow; mismatches : Sweep.mismatch list }
  | Divergence of { detail : string }

type verdicts = Trial.verdicts = {
  controller : Bisram_bisr.Repair.outcome;
  reference : Bisram_bisr.Repair.outcome;
  iterated : Bisram_bisr.Repair.outcome;
  rounds : int;
  cycles : int;  (** 0 under BIRA (no microprogrammed controller) *)
  alloc : (int list * int list) option;
      (** the armed BIRA allocation (repaired rows, repaired columns);
          [None] for TLB trials and unrepaired BIRA trials *)
}

type trial = Trial.trial = {
  t_index : int;  (** -1 for a replay outside a campaign *)
  t_seed : int;
  t_faults : Bisram_faults.Fault.t list;
  t_verdicts : verdicts;
  t_anomalies : anomaly list;
}

(** Run one trial on an explicit fault list (no randomness): the repair
    architecture's two flow runs, each on its own freshly armed model,
    then the differential oracle and the escape sweeps.  The run under
    test carries the two-pass verdict; the checking run yields the
    oracle verdict and the side the iterated escape sweep reads.  Under
    [Row_tlb] the microprogrammed controller is under test, checked by
    one engine run of the iterated 2k-pass flow
    ({!Bisram_bisr.Repair.run_flows}), whose verdict is reported as
    [iterated] and which also yields the functional two-pass reference
    verdict as the oracle.  Under [Bira _] the packed-word comparator
    analog is under test, checked by the bit-by-bit reference, which
    also carries the iterated escape sweep; the analog's verdict is
    reported for both flows.  The analog's run compares the two
    extractions on every failure ({!Bisram_bira.Bira.run_checked}); if
    all agree it is the reference run too, swept once, and only a
    disagreement runs the reference on a model of its own. *)
val run_faults :
  config -> Bisram_faults.Fault.t list -> verdicts * anomaly list

(** Re-run a single trial from its reported seed, always simulating it.
    @raise Invalid_argument as {!run} for an invalid mix, proposal,
    count model, [max_rounds] or [max_seconds]. *)
val replay : config -> seed:int -> trial

(** Shrink the fault list of a failing trial to a minimal list that
    still triggers the given anomaly's kind (identity when
    [config.shrink] is false).  The list must trigger the anomaly, as a
    trial's own fault list does: it is not re-checked
    ({!Shrink.minimize_failing}).  Every candidate list is simulated,
    the empty one included; {!run}'s own shrinking answers the empty
    list without simulating it, behind its fault-free check, and
    shrinks to the same list. *)
val shrink_anomaly :
  config -> anomaly -> Bisram_faults.Fault.t list ->
  Bisram_faults.Fault.t list

type histogram = Tally.histogram = {
  passed_clean : int;
  repaired : int;
  too_many_faulty_rows : int;
  fault_in_second_pass : int;
}

(** What a failure record reports; the report and checkpoint spell it
    ["escape"] / ["divergence"]. *)
type failure_kind = Record.failure_kind =
  | Silent_escape  (** a passing flow left faulty logical addresses *)
  | Oracle_divergence  (** the flow under test disagrees with its oracle *)

type failure = Record.failure = {
  f_trial : int;
  f_seed : int;
  f_kind : failure_kind;
  f_flow : string;  (** "two-pass", "iterated" or "oracle" *)
  f_detail : string;
  f_faults : Bisram_faults.Fault.t list;
  f_shrunk : Bisram_faults.Fault.t list;
}

(** A trial whose own machinery crashed (an exception escaped the
    trial, distinct from a detected escape/divergence in the design
    under test): recorded as an outcome in the report instead of
    aborting the campaign. *)
type tool_error = Record.tool_error = {
  te_trial : int;
  te_seed : int;
  te_error : string;  (** [Printexc.to_string] of the final exception *)
}

(** Weighted occurrence count of one failure indicator: how many
    trials fired it, and the sums of their importance weights and
    squared weights (what effective-sample-size interval math
    consumes). *)
type indicator = Tally.indicator = { t_trials : int; t_w : float; t_w2 : float }

(** Importance-weighted campaign tallies, accumulated in strict trial
    order when a proposal is armed.  [w_sum] / [w_sum2] run over {e
    all} [wn] trials; the per-indicator tallies only over trials where
    the indicator fired.  An unbiased nominal-probability estimate of
    an indicator is [indicator.t_w /. float wn]. *)
type weighted = Tally.weighted = {
  wn : int;
  w_sum : float;
  w_sum2 : float;
  w_escape : indicator;  (** trials with >= 1 escape (either flow) *)
  w_repair_fail_two_pass : indicator;
  w_repair_fail_iterated : indicator;
}

type result = Tally.result = {
  config : config;
  trials_run : int;
  truncated : bool;  (** stopped early (wall-clock budget or SIGINT) *)
  resumed_trials : int;
      (** trials served from a resumed checkpoint (not serialized —
          a resumed report stays byte-identical to a cold one) *)
  two_pass : histogram;
  iterated : histogram;
  rounds : (int * int) list;  (** (verify rounds, trial count), sorted *)
  escapes : failure list;
  divergences : failure list;
  tool_errors : tool_error list;
      (** crashed trials, in trial order; they count against the
          observed yields (a trial that crashed did not pass) *)
  observed_yield_two_pass : float;
  observed_yield_iterated : float;
  weighted : weighted option;
      (** importance-weighted tallies; [Some] exactly when the config
          has a proposal (not serialized into the schema-/2 report) *)
}

(** Checkpoint policy for {!run}: where to snapshot, how often, and
    whether to load an existing snapshot first. *)
type checkpoint

(** [checkpoint ~path ?every ?resume ()] — snapshot the contiguous
    prefix of completed trials to [path] (atomic temp + rename in the
    same directory) every [every] completed trials (default [0]:
    never write), plus once at the end of the run.  With [resume]
    (default [false]) an existing snapshot at [path] is loaded first
    and its trials are served from memory instead of recomputed.

    A damaged snapshot (truncated file, invalid JSON, schema or config
    mismatch, out-of-order or wrong-seed records) silently degrades:
    the maximal valid contiguous prefix is used, down to a cold start.
    Trial records are deterministic per (config, index), so a resumed
    report is byte-identical to an uninterrupted run's.  The trial
    count and time budget may differ between the interrupted and the
    resuming config; everything else must match or the snapshot is
    rejected.

    @raise Invalid_argument if [every < 0], naming the value. *)
val checkpoint : path:string -> ?every:int -> ?resume:bool -> unit -> checkpoint

(** Cumulative completion counts streamed to [run]'s [on_progress]
    callback — a write-only side channel for live reporting (see
    {!Bisram_obs.Progress}); nothing in it feeds the report.  The
    counts are the report's own, taken from the fold, so the last
    snapshot's [p_done], [p_escapes], [p_divergences] and
    [p_tool_errors] equal the report's [trials_run] and the lengths of
    its [escapes], [divergences] and [tool_errors]. *)
type progress = Tally.progress = {
  p_done : int;  (** trials folded so far (resumed ones included) *)
  p_total : int;  (** the trials requested: [config.trials] *)
  p_escapes : int;  (** escape records (one per escaping flow) *)
  p_divergences : int;
  p_tool_errors : int;
  p_clean : int;
      (** clean trials: both flows passed clean on the first verify
          round with no escape or divergence — the record a zero-fault
          trial resolves to.  A repaired or crashed trial is not clean. *)
}

(** Run the campaign.  [now] (default {!Bisram_parallel.Clock.now}, a
    monotonic clock immune to wall-time jumps) is only consulted for
    the wall-clock budget; with [max_seconds = None] the run is fully
    deterministic.  [now] is called from the calling domain only, even
    when [jobs > 1], so it need not be safe to share across domains
    (worker domains observe the stop through the pool's internal flag).
    Partial results under a budget are valid and flagged [truncated].

    [should_stop] (default [fun () -> false]) is a caller-supplied
    early-stop predicate polled before every trial from {e every}
    worker domain (so it must be domain-safe — an [Atomic.get] is);
    the CLI routes its SIGINT flag through it.  A stop drains exactly
    like the budget: the report aggregates the maximal contiguous
    prefix of completed trials.

    Every trial record is counted in one place, a fold in trial order:
    finished scheduling units wait in the pool's [on_result] collector
    until every unit before them has finished, and are then added to
    the report counts, importance weights included, so the report —
    floats and all — is the same at every job count and pool-item width.
    The same fold emits the per-record events, keeps the checkpoint
    prefix and streams [on_progress].  A resumed checkpoint prefix is
    folded before scheduling; the pool only runs the trials after it.

    [jobs] (default 1: fully sequential, no domain spawned) fans the
    trials out over that many domains via {!Bisram_parallel.Pool};
    results are merged in trial-index order, so with no time budget
    the report is byte-identical at every job count.  Under a budget,
    {e how many} trials complete before the cutoff depends on timing at
    any job count, including 1 — but the report always aggregates
    exactly the contiguous prefix [0 .. trials_run - 1]: trials a
    worker finished beyond the first unfinished index are discarded, so
    a truncated report at [jobs = n] equals an unbudgeted sequential
    run over its first [trials_run] trials.

    Fault tolerance: a trial that raises is recorded as its own
    {!tool_error} outcome, whatever else its pool item holds, and the
    campaign goes on.  A {!Bisram_parallel.Pool.Transient} raise (an
    injected chaos fault, keyed per item) fails the whole item, which
    is retried (bounded) and otherwise records one tool error per
    trial.  [trial_deadline] (default none) arms a
    cooperative deadline per trial: trials poll it between flows (a
    zero-fault trial never does), and one that exceeds it is a tool
    error ([Pool.Deadline_exceeded]).

    Before any trial, the call checks the configuration's draw (its
    mix, proposal, count model, round bound and time budget: a
    configuration made by record update never went through
    {!make_config}) and prepares it once
    ({!Bisram_faults.Proposal.sampler}); an invalid one is refused up
    front.  Every trial then draws its fault list once, from its own
    seed, with the same faults and rng consumption as an unprepared
    draw.  A trial that draws no fault is a pure function of the
    configuration: its record is the one shared clean record (both
    flows pass clean on verify round 1, no escape or divergence) and
    no model is built.  Every other trial runs the full flow of
    {!run_faults} on the list it drew; {!replay} always simulates.  A
    trial's importance weight is computed from the list it drew and
    kept on its in-memory record; a checkpoint does not carry it, and
    a resumed trial's is recomputed from its seed.

    Before scheduling, when there are trials to run, the fault-free
    flow is simulated once, and a configuration whose fault-free flow
    is not clean (a march that fails a fault-free array, say) is
    refused.

    [lanes] (default {!max_lanes}) is the number of consecutive trials
    one pool item covers, in [1 .. max_lanes]: full items of [lanes]
    trials, then one item per trial for the ragged tail.  It trades
    scheduling overhead against the granularity of chaos injection,
    retries and checkpoints, and never changes a record, so the report is
    byte-identical at every [lanes] and [jobs] combination, with or
    without a [trial_deadline].

    [offset] (default [0]) shifts the whole trial window: the call
    computes trials [offset .. offset + trials - 1] with their global
    derived seeds, so a window's failure records equal those of the
    same trials in a larger run from 0 (a pilot run followed by a run
    at [~offset:pilot] covers one campaign).  Checkpoints require
    [offset = 0] (they snapshot a prefix from trial 0).

    [stop_rule] [(every, rule)] (default none) is an early-stopping
    rule on the fold: each time the folded count reaches a multiple of
    [every], and at the last requested trial, [rule] receives the
    running result — a fixed run of the trials folded so far.  If it
    returns [true] the campaign ends there: nothing more is folded or
    scheduled, and the result reads as a fixed run of that many trials
    ([config.trials] = [trials_run], not truncated).  The rule runs
    under the fold's lock on the completing worker's domain, so it
    must be domain-safe, and it never sees the clock: whether it fires
    is a function of the trials alone.

    [on_progress] (default absent) receives cumulative {!progress}
    counts on the completing worker's domain each time the fold
    advances (it must be domain-safe; {!Bisram_obs.Progress} is).
    Calls never overlap: each is made under the fold's lock, so
    successive snapshots never decrease.
    Like telemetry and events, it cannot change the report: reports
    are byte-identical with or without it.

    @raise Invalid_argument if [jobs < 1], [lanes] is outside
    [1 .. max_lanes], [offset < 0], a checkpoint is combined with a
    nonzero [offset], the stopping rule's [every] is below 1, or the
    configuration's mix, proposal, count model, [max_rounds] or
    [max_seconds] is invalid (as {!make_config} would refuse it).
    @raise Failure if the fault-free flow is not clean. *)
val run :
  ?now:(unit -> float) ->
  ?jobs:int ->
  ?lanes:int ->
  ?should_stop:(unit -> bool) ->
  ?checkpoint:checkpoint ->
  ?trial_deadline:Bisram_parallel.Pool.deadline ->
  ?offset:int ->
  ?stop_rule:int * (result -> bool) ->
  ?on_progress:(progress -> unit) ->
  config ->
  result

(** {!Bisram_yield.Repairable} prediction for the config's geometry
    and fault-count model (array-only: logic fraction 0, growth 1;
    under BIRA the seeded 2D Monte-Carlo estimate).  A pure function
    of the config, computed only where a report renders it. *)
val analytic_yield : config -> float
val to_json : result -> Bisram_obs.Json.t
val json_string : result -> string
val pretty_json_string : result -> string
val pp_trial : Format.formatter -> trial -> unit
