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

let arm model tlb = Model.set_remap model (Some (fun row -> Tlb.remap tlb ~row))

let hooks_of_tlb tlb model =
  { Controller.record_fault = (fun ~row -> Tlb.record tlb ~row)
  ; would_overflow = (fun ~row -> Tlb.would_overflow tlb ~row)
  ; enable_remap = (fun () -> arm model tlb)
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

(* The independent two-pass oracle: record pass 1's failing rows
   (stopping at the first that overflows), then one early-exit verify
   march through the remap. *)
let run_reference model test ~backgrounds =
  let tlb = fresh_tlb model in
  Model.set_remap model None;
  let rows =
    Engine.failing_rows (Model.org model) (Engine.run model test ~backgrounds)
  in
  if List.exists (fun row -> Tlb.record tlb ~row = `Full) rows then
    (Repair_unsuccessful Too_many_faulty_rows, tlb)
  else begin
    arm model tlb;
    ( (if not (Engine.passes model test ~backgrounds) then
         Repair_unsuccessful Fault_in_second_pass
       else match rows with [] -> Passed_clean | _ -> Repaired rows)
    , tlb )
  end

type allocator = {
  learn : Engine.failure list -> [ `Ok | `Full ];
  arm : unit -> [ `Ok | `Full ];
  repaired : unit -> int list;
}

(* The repair flow, once for every allocator.  Rounds count verify
   marches; a clean detection is its own verify, and the bound is
   checked before a failed round is learned. *)
let iterate ?(max_rounds = 8) a model test ~backgrounds =
  let rec verify round =
    match a.arm () with
    | `Full -> (Repair_unsuccessful Too_many_faulty_rows, round - 1)
    | `Ok -> (
        match Engine.run model test ~backgrounds with
        | [] -> (Repaired (a.repaired ()), round)
        | _ when round >= max_rounds ->
            (Repair_unsuccessful Fault_in_second_pass, round)
        | failures -> learn failures (round + 1))
  and learn failures next =
    match a.learn failures with
    | `Full -> (Repair_unsuccessful Too_many_faulty_rows, next - 1)
    | `Ok -> verify next
  in
  Model.set_remap model None;
  Model.set_col_remap model None;
  match Engine.run model test ~backgrounds with
  | [] -> (Passed_clean, 1)
  | failures -> learn failures 1

(* The row-TLB allocator: a new failing row takes the next spare, and a
   repaired row whose spare fails moves on to the next one. *)
let tlb_allocator model tlb =
  let rec record = function
    | [] -> `Ok
    | row :: rest -> (
        let alloc =
          if Option.is_none (Tlb.spare_of tlb ~row) then Tlb.record
          else Tlb.remap_spare
        in
        match alloc tlb ~row with `Ok -> record rest | `Full -> `Full)
  in
  { learn = (fun fs -> record (Engine.failing_rows (Model.org model) fs))
  ; arm = (fun () -> arm model tlb; `Ok)
  ; repaired = (fun () -> Tlb.mapped_rows tlb)
  }

type iterated_result = { i_outcome : outcome; i_tlb : Tlb.t; i_rounds : int }

type flows = {
  reference : outcome;
  reference_rows : int list;
  iterated : iterated_result;
}

(* The iterated flow, with the reference read off the way: its TLB is
   this one after learning detection's rows, and its verify march is
   verify round 1 (both start from a clear under the same remap), so it
   passed exactly when the iterated flow ended in round 1 or less
   without giving up. *)
let run_flows ?max_rounds model test ~backgrounds =
  let tlb = fresh_tlb model in
  let a = tlb_allocator model tlb in
  let pass1 = ref None in
  let learn failures =
    let r = a.learn failures in
    if Option.is_none !pass1 then pass1 := Some (Tlb.mapped_rows tlb);
    r
  in
  let i_outcome, i_rounds =
    iterate ?max_rounds { a with learn } model test ~backgrounds
  in
  let reference =
    match i_outcome with
    | Passed_clean -> i_outcome
    | Repaired _ when i_rounds = 1 -> i_outcome
    | Repair_unsuccessful Too_many_faulty_rows when i_rounds = 0 -> i_outcome
    | _ -> Repair_unsuccessful Fault_in_second_pass
  in
  { reference
  ; reference_rows = Option.value ~default:[] !pass1
  ; iterated = { i_outcome; i_tlb = tlb; i_rounds }
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
