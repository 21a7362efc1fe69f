(** Fault-coverage evaluation by serial fault simulation.

    Each candidate fault is injected alone into a fresh RAM model; the
    march test runs with the given backgrounds, and the fault counts as
    detected when at least one read miscompares.  This is the metric
    behind the paper's claim that IFA-9 with Johnson-counter backgrounds
    covers stuck-at, stuck-open, transition, state-coupling and
    data-retention faults. *)

type class_stats = {
  class_name : string;
  injected : int;
  detected : int;
}

type result = {
  per_class : class_stats list;
  total_injected : int;
  total_detected : int;
}

val coverage_pct : class_stats -> float
val total_pct : result -> float

(** [evaluate org test ~backgrounds ~faults] simulates each fault
    separately. *)
val evaluate :
  Bisram_sram.Org.t ->
  March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  faults:Bisram_faults.Fault.t list ->
  result

(** Exhaustive single-cell fault list over a (small) array: every SAF,
    TF, SOF and DRF at every cell, plus coupling faults between every
    vertically/horizontally adjacent pair.  With [include_same_word],
    couplings between bit-adjacent cells of the same word (physically
    bpc columns apart) are added — the faults the Johnson-counter
    backgrounds exist to expose.  Meant for small organizations. *)
val exhaustive_faults :
  ?include_same_word:bool -> Bisram_sram.Org.t -> Bisram_faults.Fault.t list

val pp : Format.formatter -> result -> unit
