(** The two-pass built-in self-test / self-repair flow.

    Pass 1 tests the array and stores faulty row addresses in the TLB;
    pass 2 retests with the remap active — exercising the mapped spare
    rows — and any remaining mismatch means "Repair Unsuccessful"
    (too many faults, or faulty spares).  The 2k-pass extension iterates
    the cycle so faults within the spares themselves are repaired by
    allocating further spares.  That iterated loop ({!iterate}) is
    written once and drives both repair architectures: the row TLB here
    and the 2D BIRA allocator of [Bisram_bira.Bira]. *)

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

(** A repair architecture, as {!iterate} drives it: [learn] records a
    march's failures (new faulty lines, and lines whose spare failed),
    [arm] allocates spares for them and installs the remap, and
    [repaired] is the armed repair's logical rows.  [`Full] means no
    allocation exists. *)
type allocator = {
  learn : Bisram_bist.Engine.failure list -> [ `Ok | `Full ];
  arm : unit -> [ `Ok | `Full ];
  repaired : unit -> int list;
}

(** The repair flow: detect from power-up with no remap armed (nothing
    found is [Passed_clean], with no second march); learn; then arm and
    verify until a verify march passes ([Repaired]), learning or arming
    is [`Full] ([Too_many_faulty_rows]), or [max_rounds] (default 8)
    verify marches have failed ([Fault_in_second_pass], checked before
    learning that round).  Also returns the verify marches run; the last
    armed remap stays in the model. *)
val iterate :
  ?max_rounds:int ->
  allocator ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  outcome * int

type iterated_result = {
  i_outcome : outcome;
  i_tlb : Tlb.t;
  i_rounds : int;
      (** verification marches executed: 1 for a clean array or a
          first-try repair, [max_rounds] at the give-up bound, 0 when
          the initial fault recording already overflowed the TLB *)
}

(** Iterated (2k-pass) flow: {!iterate} with the row-TLB allocator.  A
    new failing row takes the next spare; a repaired row whose spare
    failed moves on to the next one.  The campaign harness histograms
    the rounds as the repair-effort metric. *)
val run_iterated_result :
  ?max_rounds:int ->
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  iterated_result

(** Both engine flows from one run: the iterated flow's result, plus the
    two-pass reference verdict and TLB rows read off it (the TLB after
    learning detection's rows; verify round 1 is the second pass). *)
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
