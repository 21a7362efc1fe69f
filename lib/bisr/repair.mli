(** The two-pass built-in self-test / self-repair flow.

    Pass 1 tests the array and stores faulty row addresses in the TLB;
    pass 2 retests with the remap active — exercising the mapped spare
    rows — and any remaining mismatch means "Repair Unsuccessful"
    (too many faults, or faulty spares).  The 2k-pass extension iterates
    the cycle so faults within the spares themselves are repaired by
    allocating further spares. *)

type reason = Too_many_faulty_rows | Fault_in_second_pass

type outcome =
  | Passed_clean  (** no faults found *)
  | Repaired of int list  (** faulty logical rows, in detection order *)
  | Repair_unsuccessful of reason

(** Controller hooks backed by a TLB and a RAM model: recording goes to
    the TLB; enabling the remap installs the TLB translation into the
    model's addressing path. *)
val hooks_of_tlb :
  Tlb.t -> Bisram_sram.Model.t -> Bisram_bist.Controller.hooks

(** Run the microprogrammed controller end to end.  Creates the TLB
    from the model's organization, compiles the controller for the
    march test and backgrounds, and executes both passes.  Returns the
    outcome, the controller report and the TLB (left installed in the
    model on success, so normal-mode accesses are diverted). *)
val run :
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  outcome * Bisram_bist.Controller.report * Tlb.t

(** Reference flow via the functional march engine (same semantics,
    no microprogram).  Used as the oracle for the controller. *)
val run_reference :
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  outcome * Tlb.t

type iterated_result = {
  i_outcome : outcome;
  i_tlb : Tlb.t;
  i_rounds : int;
      (** verification marches executed: 1 for a first-try success,
          [max_rounds] at the give-up bound, 0 when the initial fault
          recording already overflowed the TLB *)
}

(** Iterated (2k-pass) flow: on a pass-2 failure caused by a faulty
    spare, the affected logical rows are remapped to subsequent spares
    and verification repeats, up to [max_rounds] times.  The result
    also counts the verification rounds consumed — the campaign harness
    histograms this as the repair-effort metric. *)
val run_iterated_result :
  ?max_rounds:int ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  iterated_result

(** Both engine flows from one run: the iterated flow's result, plus the
    two-pass reference verdict and TLB rows read off its first verify
    round, which is the reference's second pass run to the end. *)
type flows = {
  reference : outcome;  (** = the outcome of {!run_reference} *)
  reference_rows : int list;
      (** = [Tlb.mapped_rows] of {!run_reference}'s TLB *)
  iterated : iterated_result;  (** = {!run_iterated_result} *)
}

val run_flows :
  ?max_rounds:int ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  flows

val pp_outcome : Format.formatter -> outcome -> unit
