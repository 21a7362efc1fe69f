(** Declarative sweep specification: the input of the design-space
    exploration engine.

    A spec names {e ranges} over the organization parameters the paper
    sweeps (words, bpw, bpc, spare rows) and over the environment axes
    of its figures (mean defect count, clustering factor alpha, per-bit
    failure rate lambda), plus {e scalars} shared by every point
    (process, march, drive, strap, the cost-model chip and the optional
    campaign budget).  {!expand} crosses the ranges into the config
    lattice in a fixed documented order, skipping combinations that
    violate the organization constraints (words not a multiple of bpc),
    so the point list — and with it the whole report — is deterministic.

    The surface syntax is the same [key = value] file format as
    {!Bisram_core.Config_file}, with comma-separated lists for ranges:

    {v
    # Fig. 4 sweep
    words        = 4096
    bpw          = 4
    bpc          = 4
    spares       = 0, 4, 8, 16
    mean_defects = 0.5, 1, 2, 5, 10
    alpha        = 2
    lambda       = 1e-10
    chip         = Intel Pentium
    v} *)

type t = {
  words : int list;
  bpw : int list;
  bpc : int list;
  spares : int list;
  spare_cols : int list;  (** spare-column budgets; [0] = row-only *)
  mean_defects : float list;
  alpha : float list;
  lambda : float list;  (** per-bit hard-failure rate, per hour *)
  process : Bisram_tech.Process.t;
  march : Bisram_bist.March.t;
  drive : int;
  strap : int;
  chip : Bisram_cost.Chips.t;  (** cost-model host chip (Tables II/III) *)
  evaluators : string list;  (** evaluator ids, validated, fixed order *)
  campaign_trials : int;  (** 0 disables the campaign evaluator *)
  campaign_seed : int;
  repair : string;
      (** campaign repair strategy name (validated with
          {!Bisram_campaign.Campaign.repair_of_name}); ["row-tlb"] by
          default *)
}

(** One lattice point: an organization under one (defect, alpha,
    lambda) environment.  [index] is the point's position in the
    deterministic expansion order. *)
type point = {
  index : int;
  org : Bisram_sram.Org.t;
  mean_defects : float;
  alpha : float;
  lambda : float;
}

(** Defaults: the paper's Fig.-4 organization (4096 words, bpw 4,
    bpc 4) over spares 0/4/8/16 and mean defects 0.5/1/2/5/10,
    alpha 2, lambda 1e-10, CDA.7u3m1p, IFA-9, drive 2, strap 32,
    Intel Pentium, campaign disabled. *)
val default : t

(** Parse a spec file: the lines go through
    {!Bisram_core.Config_file.parse} and the process and march names
    through its resolvers.  Unknown keys, empty ranges, malformed numbers,
    non-finite or out-of-domain values (negative mean defects,
    alpha <= 0, lambda <= 0), unknown process/march/chip/evaluator
    names and a requested campaign evaluator with [campaign_trials = 0]
    are all reported as [Error]. *)
val of_string : string -> (t, string) result

(** Expand the ranges into the point lattice, nesting in the fixed
    order words > bpw > bpc > spares > spare_cols > mean_defects >
    alpha > lambda (rightmost fastest).  Returns the points and the
    number of skipped invalid combinations. *)
val expand : t -> point array * int

(** The full compiler configuration of a point (spec scalars + point
    organization, spare columns included). *)
val config_of_point : t -> point -> Bisram_core.Config.t

(** Canonical rendering of everything the compiled design of an
    organization depends on: organization, process, drive, strap and
    march.  Points that share it share one {!config_of_point} design;
    it is the design part of the ["area"], ["yield"] and ["cost"]
    {!cache_key}s. *)
val design_key : t -> Bisram_sram.Org.t -> string

(** Canonical, version-free rendering of the sub-spec a given evaluator
    depends on — the content-addressed cache key material.  Two points
    that agree on an evaluator's inputs (e.g. the same organization at
    different lambda, for ["area"]) share a key, so the cache
    deduplicates across the lattice as well as across runs.
    @raise Invalid_argument on an unknown evaluator id. *)
val cache_key : t -> point -> evaluator:string -> string

(** Spec echo for the report (deterministic field order). *)
val to_json : t -> Bisram_obs.Json.t
