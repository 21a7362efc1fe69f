module Model = Bisram_sram.Model
module Org = Bisram_sram.Org
module March = Bisram_bist.March
module Engine = Bisram_bist.Engine
module Controller = Bisram_bist.Controller

type reason = Too_many_faulty_rows | Fault_in_second_pass

type outcome =
  | Passed_clean
  | Repaired of int list
  | Repair_unsuccessful of reason

let hooks_of_tlb tlb model =
  { Controller.record_fault = (fun ~row -> Tlb.record tlb ~row)
  ; would_overflow = (fun ~row -> Tlb.would_overflow tlb ~row)
  ; enable_remap =
      (fun () -> Model.set_remap model (Some (fun row -> Tlb.remap tlb ~row)))
  ; faults_recorded = (fun () -> Tlb.entries tlb)
  }

let fresh_tlb model =
  let org = Model.org model in
  Tlb.create ~spares:org.Org.spares ~regular_rows:(Org.rows org)

let run model test ~backgrounds =
  let tlb = fresh_tlb model in
  Model.set_remap model None;
  let ctl =
    Controller.compile test ~words:(Model.org model).Org.words ~backgrounds
  in
  let hooks = hooks_of_tlb tlb model in
  let in_pass2 = ref false in
  let hooks =
    { hooks with
      Controller.enable_remap =
        (fun () ->
          in_pass2 := true;
          hooks.Controller.enable_remap ())
    }
  in
  let report = Controller.run ctl model hooks in
  let outcome =
    match report.Controller.outcome with
    | Controller.Passed_clean -> Passed_clean
    | Controller.Repaired -> Repaired (Tlb.mapped_rows tlb)
    | Controller.Repair_unsuccessful ->
        if !in_pass2 then Repair_unsuccessful Fault_in_second_pass
        else Repair_unsuccessful Too_many_faulty_rows
  in
  (outcome, report, tlb)

(* Pass 1 from power-up and its TLB recording, shared by the reference
   and the iterated flow: the failing rows in detection order, and
   whether the TLB took them all.  The rows are distinct and the TLB
   is fresh, so this recording is also the iterated flow's first
   [record_new]. *)
let first_pass model test ~backgrounds =
  let tlb = fresh_tlb model in
  Model.set_remap model None;
  let failures = Engine.run model test ~backgrounds in
  let rows = Engine.failing_rows (Model.org model) failures in
  let rec record = function
    | [] -> `Ok
    | row :: rest -> (
        match Tlb.record tlb ~row with `Ok -> record rest | `Full -> `Full)
  in
  (tlb, rows, record rows)

let arm model tlb = Model.set_remap model (Some (fun row -> Tlb.remap tlb ~row))

let two_pass_verdict rows ~verified =
  if not verified then Repair_unsuccessful Fault_in_second_pass
  else if rows = [] then Passed_clean
  else Repaired rows

let run_reference model test ~backgrounds =
  let tlb, rows, recorded = first_pass model test ~backgrounds in
  match recorded with
  | `Full -> (Repair_unsuccessful Too_many_faulty_rows, tlb)
  | `Ok ->
      arm model tlb;
      ( two_pass_verdict rows ~verified:(Engine.passes model test ~backgrounds)
      , tlb )

type iterated_result = { i_outcome : outcome; i_tlb : Tlb.t; i_rounds : int }

type flows = {
  reference : outcome;
  reference_rows : int list;
  iterated : iterated_result;
}

(* The iterated flow, with the reference verdict read off the way: the
   reference's second pass is verify round 1 up to its first mismatch
   (both start from a clear under the same remap), and its TLB is this
   one before round 1's failures are recorded. *)
let run_flows ?(max_rounds = 8) model test ~backgrounds =
  let tlb, first_rows, recorded = first_pass model test ~backgrounds in
  let reference_rows = Tlb.mapped_rows tlb in
  let result i_outcome i_rounds = { i_outcome; i_tlb = tlb; i_rounds } in
  match recorded with
  | `Full ->
      let o = Repair_unsuccessful Too_many_faulty_rows in
      { reference = o; reference_rows; iterated = result o 0 }
  | `Ok ->
      arm model tlb;
      let record_new rows =
        List.fold_left
          (fun acc row ->
            match acc with
            | `Full -> `Full
            | `Ok -> (
                match Tlb.spare_of tlb ~row with
                | None -> Tlb.record tlb ~row
                | Some _ -> Tlb.remap_spare tlb ~row))
          `Ok rows
      in
      let rec verify round failures =
        if failures = [] then
          result
            (if first_rows = [] then Passed_clean
             else Repaired (Tlb.mapped_rows tlb))
            round
        else if round >= max_rounds then
          result (Repair_unsuccessful Fault_in_second_pass) round
        else
          match
            record_new (Engine.failing_rows (Model.org model) failures)
          with
          | `Full -> result (Repair_unsuccessful Too_many_faulty_rows) round
          | `Ok -> verify (round + 1) (Engine.run model test ~backgrounds)
      in
      let round1 = Engine.run model test ~backgrounds in
      { reference = two_pass_verdict first_rows ~verified:(round1 = [])
      ; reference_rows
      ; iterated = verify 1 round1
      }

let run_iterated_result ?max_rounds model test ~backgrounds =
  (run_flows ?max_rounds model test ~backgrounds).iterated

let pp_outcome ppf = function
  | Passed_clean -> Format.pp_print_string ppf "passed clean"
  | Repaired rows ->
      Format.fprintf ppf "repaired rows [%s]"
        (String.concat "," (List.map string_of_int rows))
  | Repair_unsuccessful Too_many_faulty_rows ->
      Format.pp_print_string ppf "repair unsuccessful: too many faulty rows"
  | Repair_unsuccessful Fault_in_second_pass ->
      Format.pp_print_string ppf "repair unsuccessful: fault in second pass"
