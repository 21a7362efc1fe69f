(** Delay model of the TLB's parallel address comparison.

    The match path is a CAM row: one XOR-style compare device per row
    address bit discharging a shared match line, followed by the
    spare word-line encoder.  The paper reports about 1.2 ns for four
    spare rows at 0.7 um, at least an order of magnitude below the RAM
    access time, and maskable (precharge overlap, level-sensitive
    address register, or oversized decoders) for 1-4 spares. *)

type estimate = {
  match_line : float;  (** CAM match-line discharge, seconds *)
  priority_encode : float;  (** entry select / spare encode *)
  drive_out : float;  (** driving the diverted row address out *)
}

val total : estimate -> float

(** [delay process ~org] — delay as a function of process, address
    width (log2 of regular rows) and number of spares. *)
val delay :
  Bisram_tech.Process.t -> org:Bisram_sram.Org.t -> estimate

(** A TLB delay is maskable when it fits inside the precharge phase,
    taken as 40% of the RAM access time (technique 1 of Section VI). *)
val maskable :
  Bisram_tech.Process.t -> org:Bisram_sram.Org.t -> drive:float -> bool
