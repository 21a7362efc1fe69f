(** Yield of a built-in self-repairable RAM module (Fig. 4 machinery).

    A module is "good" under the paper's strict manufacturing notion iff
    no fault falls in the (non-redundant) BIST/BISR logic, no fault
    falls in any spare row, and the faulty cells in the regular array
    occupy at most [spares] distinct rows.

    Faults are cell faults: the x-axis mean defect count n-bar is the
    product D*A for the non-redundant array; for a BISR'ed module the
    mean is multiplied by the area growth factor. *)

type geometry = {
  regular_rows : int;
  spares : int;
  logic_fraction : float;
      (** fraction of the module area occupied by BIST/BISR logic *)
  growth_factor : float;
      (** module area / non-redundant array area; >= 1 *)
}

(** Geometry of a bare array (no spares, no logic, growth 1). *)
val bare : regular_rows:int -> geometry

(** Raises [Invalid_argument] on degenerate geometry: non-positive rows,
    negative spares, logic_fraction outside [0, 1) (including NaN), or a
    non-finite growth_factor below 1. *)
val make :
  regular_rows:int -> spares:int -> logic_fraction:float ->
  growth_factor:float -> geometry

(** [p_repairable g n] — probability that a pattern of exactly [n]
    uniformly placed cell faults is repairable (strict notion).  Runs
    the distinct-rows DP from zero, O(n·spares) per call: the per-count
    form, for callers that need one [n]; {!yield} does not call it. *)
val p_repairable : geometry -> int -> float

(** [p_distinct_rows_at_most ~rows ~spares n] — probability that [n]
    balls thrown into [rows] bins occupy at most [spares] distinct bins
    (stable one-ball-at-a-time DP). *)
val p_distinct_rows_at_most : rows:int -> spares:int -> int -> float

(** [yield g ~mean_defects ~alpha] — module yield: the negative-binomial
    mixture of [p_repairable] over the fault count, with the mean
    already scaled by the growth factor internally.  The mixture sums
    until the count distribution's remaining mass is below 1e-12 (at
    most 100 000 terms) and advances one distinct-rows DP state per
    fault count instead of calling [p_repairable] per term, so it costs
    O(N·spares) rather than O(N²·spares); every float operation is the
    one [p_repairable] performs, in the same order, so the result is
    bit-identical to Σ pmf(n)·[p_repairable g n].  Raises
    [Invalid_argument] if [mean_defects] is negative or either argument
    is non-finite or [alpha] is not positive. *)
val yield : geometry -> mean_defects:float -> alpha:float -> float

(** Same under the pure Poisson count model (same incremental mixture). *)
val yield_poisson : geometry -> mean_defects:float -> float

(** 2D geometry for spare-row + spare-column (BIRA) repair.  Unlike
    the row-only {!geometry} there is no closed form for the line-cover
    probability, so the [*2] functions below run a seeded internal
    Monte-Carlo with the exact branch-and-bound cover predicate — fully
    deterministic for fixed [samples]/[seed], which is what lets the
    campaign report embed the value byte-stably. *)
type geometry2 = {
  rows : int;  (** regular rows *)
  cols : int;  (** regular physical columns *)
  spare_rows : int;
  spare_cols : int;
}

(** Raises [Invalid_argument] on non-positive dimensions or negative
    spare budgets. *)
val make2 :
  rows:int -> cols:int -> spare_rows:int -> spare_cols:int -> geometry2

(** [p_repairable2 g n] — probability that [n] uniformly placed cell
    faults (over the full array including spare lines; a fault on a
    spare line burns it) are 2D-repairable.  Defaults: 2000 samples,
    seed 0x2D. *)
val p_repairable2 : ?samples:int -> ?seed:int -> geometry2 -> int -> float

(** 2D analogues of {!yield} / {!yield_poisson}.  The count mixture is
    truncated at 300 faults with the truncated tail counted as
    unrepairable (a tight lower bound).  Same [Invalid_argument]
    guards as the 1D versions (non-finite or negative means, NaN,
    non-positive alpha). *)
val yield2 :
  ?samples:int -> ?seed:int -> geometry2 -> mean_defects:float ->
  alpha:float -> float

val yield2_poisson :
  ?samples:int -> ?seed:int -> geometry2 -> mean_defects:float -> float

(** Monte-Carlo estimate of [yield] by direct simulation (used to
    validate the analytic path). *)
val yield_monte_carlo :
  Random.State.t -> geometry -> mean_defects:float -> alpha:float ->
  trials:int -> float
