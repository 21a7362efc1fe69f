(** Parallel design-space exploration: evaluate every point of a
    {!Spec} lattice through the analysis layers, memoize the results
    on disk, and extract the paper's decision artifacts (the Pareto
    frontier over cost/yield/MTTF/area and the best-spares-per-
    organization table of its conclusions).

    Evaluators (selected by the spec, fixed report order):

    - ["area"] — the layout flow's area report for the compiled module
      (module mm2, BIST/BISR logic share, total overhead, Fig.-4 growth
      factor).
    - ["yield"] — {!Bisram_yield.Repairable} module yield under the
      point's (mean defects, alpha), with the Stapper bare-array
      baseline; geometry (logic fraction, growth) comes from the same
      compiled design the area evaluator reports.
    - ["cost"] — {!Bisram_cost.Mpr} cost per good die and per packaged
      chip for the spec's host chip, with the point's spares/rows/alpha
      and the {e measured} area overhead of the compiled module.
    - ["reliability"] — MTTF, one- and ten-year reliability and the
      Fig.-5 crossover age against the 4-spare baseline of the same
      organization.
    - ["campaign"] — empirical post-repair rates from a seeded
      {!Bisram_campaign.Campaign} run (simulable organizations only).

    Points are fanned out over {!Bisram_parallel.Pool} and merged in
    lattice order; every evaluation is memoized through {!Cache}, and
    both the fan-out and the cache normalize values identically — so
    the ["bisram-explore/1"] report is byte-identical at any job count,
    cache-cold or cache-warm.  Per-point and per-evaluator phase spans
    and cache counters land in {!Bisram_obs.Obs} when telemetry is
    enabled; nothing telemetry records feeds the report. *)

type result = {
  spec : Spec.t;
  points : Spec.point array;  (** lattice order *)
  evals : (string * Bisram_obs.Json.t) list array;
      (** per point: (evaluator id, normalized result), spec order *)
  skipped : int;  (** invalid lattice combinations *)
  cache_stats : Cache.stats;
      (** the run's cache counters: hits, misses and the self-heal
          counts (quarantines, reaped temp files, IO errors) *)
}

(** Run the sweep.  [jobs] (default 1) fans points over that many
    domains; [cache_dir] (default none: no disk cache) roots the
    memoization store; [resume] (default false) lets the run read
    entries left by earlier runs — without it the sweep is cache-cold
    by construction and existing entries are overwritten.

    [on_progress] (default absent) is called once per completed point
    with the cumulative completion count and the point total, on the
    completing worker's domain (it must be domain-safe;
    {!Bisram_obs.Progress} is).  Write-only: the report is
    byte-identical with or without it.

    Every point is evaluated even when one raises; the run then
    re-raises the exception (with its backtrace) of the lowest-index
    point that raised, so which exception surfaces does not depend on
    [jobs].
    @raise Invalid_argument if [jobs < 1]. *)
val run :
  ?jobs:int ->
  ?cache_dir:string ->
  ?resume:bool ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  Spec.t ->
  result

(** Evaluations performed (points x selected evaluators) — the
    denominator of the cache hit rate. *)
val evaluations : result -> int

(** The ["bisram-explore/1"] report: spec echo, per-point evaluator
    results, the Pareto frontier over (cost per good die min,
    repairable yield max, MTTF max, area overhead min), and the
    best-spares table (grouped by everything but spares, ranked by
    cost per good die when the cost evaluator ran, else by yield).
    Cache statistics and timing deliberately stay out: the report is a
    pure function of the spec. *)
val report_json : result -> Bisram_obs.Json.t

val json_string : result -> string
val pretty_json_string : result -> string

(** Human-readable Pareto frontier + best-spares summary (the
    [--pareto] side channel; goes to stderr, never into the report). *)
val summary_table : result -> string
