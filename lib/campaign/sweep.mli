(** Independent post-repair array sweep: the campaign's escape
    detector.

    After the BIST/BISR flow declares a RAM good ([Passed_clean] or
    [Repaired]), the sweep exercises every logical address through the
    installed remap with write/read-back passes over four data
    backgrounds (all-0, all-1 and an address-alternating checkerboard
    pair), in both address orders, plus a retention wait per
    background.  Any mismatch is a {e test escape}: a faulty cell still
    reachable at a logical address although verification passed.

    The sweep is deliberately not the campaign's march test: its data
    and element order are its own, so it can catch faults the march
    algorithm fails to cover (e.g. stuck-open or data-retention faults
    under a weak march).  It shares only the loop that applies an
    element to the array, {!Bisram_bist.Engine.run_element}: each
    pattern is four elements — w(up), r(up), r(down), then a retention
    wait and r(up) — with the checkerboards as a parity mask, so clean
    words move in {!Bisram_sram.Model.march_span}s and the mismatches,
    their order and every model counter are those of per-op reads and
    writes. *)

type phase = Read_up | Read_down | Retention

type mismatch = {
  addr : int;  (** logical word address *)
  pattern : string;  (** background name: all-0, all-1, checker, checker-inv *)
  phase : phase;
  expected : Bisram_sram.Word.t;
  got : Bisram_sram.Word.t;
}

(** [run model] sweeps the model as-is (faults and remap installed) and
    returns every mismatch in detection order.  With
    [~stop_at_first:true] at most one mismatch is returned (cheaper —
    used as the shrinking predicate).  Array contents are destroyed. *)
val run : ?stop_at_first:bool -> Bisram_sram.Model.t -> mismatch list

(** No mismatch at all (early-stopping). *)
val clean : Bisram_sram.Model.t -> bool

(** Lane-wise sweep over a batch store: the same pattern walk reduced
    to a per-lane fail mask (bit [l] set iff lane [l] mismatched at
    least once).  Like {!run}, sweeps the store as-is — no initial
    clear.  Stops early once every lane has failed. *)
val run_lanes : Bisram_sram.Lanes.t -> int

val pp_mismatch : Format.formatter -> mismatch -> unit
