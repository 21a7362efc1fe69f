(** Hybrid row + word repair (future-work extension).

    Section III shows the two pure architectures failing in opposite
    regimes: row sparing (BISRAMGEN) wastes a whole spare row on a
    single-cell defect and saturates on scattered singles, while word
    sparing (Chen-Sunada) is swamped by row-kill defects.  The hybrid
    keeps BISRAMGEN's TLB row sparing and adds a few word-capture
    registers: rows with several faulty words go to spare rows, isolated
    faulty words go to the word registers.

    The allocation is greedy and provably safe: rows are ranked by
    faulty-word count; the top rows take spare rows; everything left
    must fit in the word registers. *)

type t

val create :
  Bisram_sram.Org.t -> word_registers:int -> t

type plan = {
  row_assignments : int list;  (** logical rows sent to spare rows *)
  word_assignments : int list;  (** word addresses sent to registers *)
}

(** Greedy allocation for a set of faulty word addresses;
    [None] when the pattern does not fit. *)
val plan : t -> faulty_words:int list -> plan option

(** Static repairability of a fault list (victims in spare rows still
    disqualify, as in the strict row-sparing notion). *)
val repairable : t -> Bisram_faults.Fault.t list -> bool

(** End-to-end repair of a faulty model: test (march), allocate, divert
    (rows through the model remap, words through a wrapper), verify. *)
val repair :
  t ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  [ `Passed_clean | `Repaired of plan | `Unsuccessful ]

(** Total TLB delay, seconds, with [word_registers] word registers
    beside the row TLB: they add one more parallel CAM bank, so the
    path still holds one match time, not two in sequence.  With 0
    registers it is the plain [Tlb_timing.total]. *)
val delay_penalty :
  Bisram_tech.Process.t -> org:Bisram_sram.Org.t -> word_registers:int ->
  float
