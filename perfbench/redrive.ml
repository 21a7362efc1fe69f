(* Traced re-drive of the workloads from outside the library.

   The campaign trial flow (lane batches, the scalar row-TLB and BIRA
   flows, escape sweeps, shrinking) and the explore evaluators are
   replayed call by call through the layers' public functions, each
   call timed into a [Sample.trace].  Every re-driven result is then
   checked, untimed, against the library's own answer for the same
   input, so the timings describe the program the end-to-end run
   measures. *)

module Campaign = Bisram_campaign.Campaign
module Sweep = Bisram_campaign.Sweep
module Shrink = Bisram_campaign.Shrink
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Lanes = Bisram_sram.Lanes
module Lane_engine = Bisram_bist.Lane_engine
module Datagen = Bisram_bist.Datagen
module Controller = Bisram_bist.Controller
module Injection = Bisram_faults.Injection
module Fault = Bisram_faults.Fault
module Repair = Bisram_bisr.Repair
module Tlb = Bisram_bisr.Tlb
module Bira = Bisram_bira.Bira
module Pool = Bisram_parallel.Pool
module Spec = Bisram_explore.Spec
module Explore = Bisram_explore.Explore
module Compiler = Bisram_core.Compiler
module Repairable = Bisram_yield.Repairable
module Stapper = Bisram_yield.Stapper
module Mpr = Bisram_cost.Mpr
module Rel = Bisram_rel.Reliability
module J = Bisram_obs.Json

(* Deterministic work counters of a re-drive. *)
type counters = {
  mutable trials : int;
  mutable fast_ops : int;  (** model word ops on the packed fast path *)
  mutable faulty_row_ops : int;  (** model word ops on fault-armed rows *)
  mutable rows_cleared : int;
  mutable lanes_run : int;
  mutable lanes_clean : int;  (** lanes resolved without the scalar flow *)
  mutable tlb_rounds : int;
  mutable cycles : int;  (** microprogrammed controller cycles *)
  mutable bira_rounds : int;
  mutable spares_used : int;
  mutable keep_calls : int;  (** shrink predicate evaluations *)
}

let counters () =
  { trials = 0; fast_ops = 0; faulty_row_ops = 0; rows_cleared = 0
  ; lanes_run = 0; lanes_clean = 0; tlb_rounds = 0; cycles = 0
  ; bira_rounds = 0; spares_used = 0; keep_calls = 0 }

(* ------------------------------------------------------------------ *)
(* the campaign trial flow *)

type failure = {
  f_trial : int;
  f_flow : string;
  f_faults : Fault.t list;
  f_shrunk : Fault.t list;
}

type record = {
  two_pass : Repair.outcome;
  iterated : Repair.outcome;
  rounds : int;
  escapes : failure list;
  divergences : failure list;
}

(* What a re-driven trial is checked against after the window. *)
type check =
  | Scalar of Fault.t list * (Campaign.verdicts * Campaign.anomaly list)
  | Lane_clean of Fault.t list

(* The campaign's per-trial fault draw without a proposal: the derived
   trial seed, the campaign's RNG seeding and its count model. *)
let draw (cfg : Campaign.config) seed =
  let rng = Random.State.make [| 0xB15; seed |] in
  let rows = Org.total_rows cfg.org and cols = Org.total_cols cfg.org in
  let mix = cfg.mix in
  match cfg.mode with
  | Campaign.Uniform n -> Injection.inject rng ~rows ~cols ~mix ~n
  | Campaign.Poisson mean -> Injection.inject_poisson rng ~rows ~cols ~mix ~mean
  | Campaign.Clustered { mean; alpha } ->
      Injection.inject_clustered rng ~rows ~cols ~mix ~mean ~alpha

let backgrounds (cfg : Campaign.config) =
  Datagen.required_backgrounds ~bpw:cfg.org.Org.bpw

let success = function
  | Repair.Passed_clean | Repair.Repaired _ -> true
  | Repair.Repair_unsuccessful _ -> false

let fresh_model (cfg : Campaign.config) faults =
  let m = Model.create cfg.org in
  Model.set_faults m faults;
  m

let model tr cfg faults =
  Sample.time tr "sram.model_setup" (fun () -> fresh_model cfg faults)

let count_model c m =
  let s = Model.stats m in
  let fast = s.Model.s_fast_reads + s.Model.s_fast_writes in
  c.fast_ops <- c.fast_ops + fast;
  c.faulty_row_ops <- c.faulty_row_ops + s.Model.s_reads + s.Model.s_writes - fast;
  c.rows_cleared <- c.rows_cleared + s.Model.s_rows_cleared

let outcome_divergence a b =
  Campaign.Divergence
    { detail =
        Format.asprintf "outcome: controller %a, reference %a"
          Repair.pp_outcome a Repair.pp_outcome b }

let ints l = String.concat "," (List.map string_of_int l)

(* Escape sweeps of the models whose flow passed, in flow order. *)
let sweeps tr l =
  List.filter_map
    (fun (passed, flow, m) ->
      if not passed then None
      else
        match Sample.time tr "campaign.sweep" (fun () -> Sweep.run m) with
        | [] -> None
        | mismatches -> Some (Campaign.Escape { flow; mismatches }))
    l

let tlb_trial tr c (cfg : Campaign.config) faults =
  let bgs = backgrounds cfg and march = cfg.march in
  let mc = model tr cfg faults in
  let controller, report, c_tlb =
    Sample.time tr "bisr.controller" (fun () ->
        Repair.run mc march ~backgrounds:bgs)
  in
  let mr = model tr cfg faults in
  let reference, r_tlb =
    Sample.time tr "bisr.reference" (fun () ->
        Repair.run_reference mr march ~backgrounds:bgs)
  in
  let mi = model tr cfg faults in
  let it =
    Sample.time tr "bisr.iterated" (fun () ->
        Repair.run_iterated_result ~max_rounds:cfg.max_rounds mi march
          ~backgrounds:bgs)
  in
  let divergences =
    if controller <> reference then [ outcome_divergence controller reference ]
    else if success controller && Tlb.mapped_rows c_tlb <> Tlb.mapped_rows r_tlb
    then
      [ Campaign.Divergence
          { detail =
              Printf.sprintf "TLB: controller rows [%s], reference rows [%s]"
                (ints (Tlb.mapped_rows c_tlb))
                (ints (Tlb.mapped_rows r_tlb)) } ]
    else []
  in
  let escapes =
    sweeps tr
      [ (success controller, Campaign.Two_pass, mc)
      ; (success it.Repair.i_outcome, Campaign.Iterated, mi) ]
  in
  List.iter (count_model c) [ mc; mr; mi ];
  c.tlb_rounds <- c.tlb_rounds + it.Repair.i_rounds;
  c.cycles <- c.cycles + report.Controller.cycles;
  ( { Campaign.controller; reference; iterated = it.Repair.i_outcome
    ; rounds = it.Repair.i_rounds; cycles = report.Controller.cycles
    ; alloc = None }
  , divergences @ escapes )

let bira_trial tr c (cfg : Campaign.config) strat faults =
  let run fast m =
    Bira.run ~max_rounds:cfg.max_rounds ~fast strat m cfg.march
      ~backgrounds:(backgrounds cfg)
  in
  let mc = model tr cfg faults in
  let cr = Sample.time tr "bira.fast" (fun () -> run true mc) in
  let mr = model tr cfg faults in
  let rr = Sample.time tr "bira.reference" (fun () -> run false mr) in
  let alloc_str = function
    | None -> "none"
    | Some a ->
        Printf.sprintf "rows [%s] cols [%s]" (ints a.Bira.a_rows)
          (ints a.Bira.a_cols)
  in
  let divergences =
    if cr.Bira.b_outcome <> rr.Bira.b_outcome then
      [ outcome_divergence cr.Bira.b_outcome rr.Bira.b_outcome ]
    else if success cr.Bira.b_outcome && cr.Bira.b_alloc <> rr.Bira.b_alloc
    then
      [ Campaign.Divergence
          { detail =
              Printf.sprintf "BIRA alloc: controller %s, reference %s"
                (alloc_str cr.Bira.b_alloc) (alloc_str rr.Bira.b_alloc) } ]
    else []
  in
  let escapes =
    sweeps tr
      [ (success cr.Bira.b_outcome, Campaign.Two_pass, mc)
      ; (success rr.Bira.b_outcome, Campaign.Iterated, mr) ]
  in
  List.iter (count_model c) [ mc; mr ];
  c.bira_rounds <- c.bira_rounds + cr.Bira.b_rounds;
  (match cr.Bira.b_alloc with
  | Some a ->
      c.spares_used <-
        c.spares_used + List.length a.Bira.a_rows + List.length a.Bira.a_cols
  | None -> ());
  ( { Campaign.controller = cr.Bira.b_outcome; reference = rr.Bira.b_outcome
    ; iterated = cr.Bira.b_outcome; rounds = cr.Bira.b_rounds; cycles = 0
    ; alloc = Option.map (fun a -> (a.Bira.a_rows, a.Bira.a_cols)) cr.Bira.b_alloc
    }
  , divergences @ escapes )

(* The shrink predicates: re-run only the flow that failed. *)
let keep_escape (cfg : Campaign.config) flow faults =
  let m = fresh_model cfg faults and bgs = backgrounds cfg in
  let outcome =
    match (cfg.repair, flow) with
    | Campaign.Bira strat, _ ->
        (Bira.run ~max_rounds:cfg.max_rounds ~fast:(flow = Campaign.Two_pass)
           strat m cfg.march ~backgrounds:bgs)
          .Bira.b_outcome
    | Campaign.Row_tlb, Campaign.Two_pass ->
        let o, _, _ = Repair.run m cfg.march ~backgrounds:bgs in
        o
    | Campaign.Row_tlb, Campaign.Iterated ->
        (Repair.run_iterated_result ~max_rounds:cfg.max_rounds m cfg.march
           ~backgrounds:bgs)
          .Repair.i_outcome
  in
  success outcome && not (Sweep.clean m)

let keep_divergence (cfg : Campaign.config) faults =
  let bgs = backgrounds cfg in
  match cfg.repair with
  | Campaign.Bira strat ->
      let run fast =
        Bira.run ~max_rounds:cfg.max_rounds ~fast strat (fresh_model cfg faults)
          cfg.march ~backgrounds:bgs
      in
      let c = run true and r = run false in
      c.Bira.b_outcome <> r.Bira.b_outcome
      || (success c.Bira.b_outcome && c.Bira.b_alloc <> r.Bira.b_alloc)
  | Campaign.Row_tlb ->
      let controller, _, c_tlb =
        Repair.run (fresh_model cfg faults) cfg.march ~backgrounds:bgs
      in
      let reference, r_tlb =
        Repair.run_reference (fresh_model cfg faults) cfg.march ~backgrounds:bgs
      in
      controller <> reference
      || (success controller && Tlb.mapped_rows c_tlb <> Tlb.mapped_rows r_tlb)

let shrink tr c (cfg : Campaign.config) anomaly faults =
  if not cfg.shrink then faults
  else
    let keep =
      match anomaly with
      | Campaign.Escape { flow; _ } -> keep_escape cfg flow
      | Campaign.Divergence _ -> keep_divergence cfg
    in
    let keep fs =
      c.keep_calls <- c.keep_calls + 1;
      keep fs
    in
    Sample.time tr "campaign.shrink" (fun () -> Shrink.minimize ~keep faults)

let scalar_trial tr c (cfg : Campaign.config) ~index =
  let faults =
    Sample.time tr "faults.inject" (fun () ->
        draw cfg (Campaign.trial_seed cfg index))
  in
  let ((v, anomalies) as verdicts) =
    match cfg.repair with
    | Campaign.Row_tlb -> tlb_trial tr c cfg faults
    | Campaign.Bira strat -> bira_trial tr c cfg strat faults
  in
  let failure a =
    { f_trial = index
    ; f_flow =
        (match a with
        | Campaign.Escape { flow; _ } -> Campaign.flow_name flow
        | Campaign.Divergence _ -> "oracle")
    ; f_faults = faults
    ; f_shrunk = shrink tr c cfg a faults }
  in
  let failures = List.map (fun a -> (a, failure a)) anomalies in
  let pick escape =
    List.filter_map
      (fun (a, f) ->
        match a with
        | Campaign.Escape _ when escape -> Some f
        | Campaign.Divergence _ when not escape -> Some f
        | _ -> None)
      failures
  in
  ( { two_pass = v.Campaign.controller; iterated = v.Campaign.iterated
    ; rounds = v.Campaign.rounds; escapes = pick true; divergences = pick false }
  , Scalar (faults, verdicts) )

let clean_record =
  { two_pass = Repair.Passed_clean; iterated = Repair.Passed_clean; rounds = 1
  ; escapes = []; divergences = [] }

(* One lane batch, mirroring the campaign's batch schedule: pass 1 from
   power-up, pass 2 on its state, sweep, pass 3 from power-up, sweep;
   lanes that stayed clean are resolved here, the rest re-run the
   scalar flow. *)
let lane_batch tr c (cfg : Campaign.config) ~start ~len =
  let arm_ns = ref 0.0 in
  let arming f =
    if not tr.Sample.on then f ()
    else
      let t0 = Bisram_parallel.Clock.now_ns () in
      let r = f () in
      arm_ns := !arm_ns +. Sample.elapsed_ns t0;
      r
  in
  let lanes = arming (fun () -> Lanes.create cfg.org ~lanes:len) in
  let faults =
    Array.init len (fun l ->
        let f =
          Sample.time tr "faults.inject" (fun () ->
              draw cfg (Campaign.trial_seed cfg (start + l)))
        in
        arming (fun () -> Lanes.arm lanes ~lane:l f);
        f)
  in
  arming (fun () -> Lanes.clear lanes);
  if tr.Sample.on then Sample.record tr "sram.lanes_arm" !arm_ns;
  let bgs = backgrounds cfg and all = Lanes.all_mask lanes in
  let pass ?clear () =
    Sample.time tr "bist.lane_pass" (fun () ->
        Lane_engine.run_pass ?clear lanes cfg.march ~backgrounds:bgs)
  in
  let sweep () = Sample.time tr "campaign.sweep_lanes" (fun () -> Sweep.run_lanes lanes) in
  let dirty = ref (pass ()) in
  if !dirty <> all then begin
    dirty := !dirty lor pass ~clear:false ();
    if !dirty <> all then dirty := !dirty lor sweep ();
    if !dirty <> all then begin
      dirty := !dirty lor pass ();
      dirty := !dirty lor sweep ()
    end
  end;
  c.lanes_run <- c.lanes_run + len;
  List.init len (fun l ->
      if !dirty land (1 lsl l) <> 0 then scalar_trial tr c cfg ~index:(start + l)
      else begin
        c.lanes_clean <- c.lanes_clean + 1;
        (clean_record, Lane_clean faults.(l))
      end)

(* The trials [offset .. offset + cfg.trials - 1], decomposed into
   pool items exactly as [Campaign.run ~lanes] does. *)
let campaign_window tr c (cfg : Campaign.config) ~lanes ~offset =
  c.trials <- c.trials + cfg.trials;
  Pool.batch_ranges ~items:cfg.trials ~width:lanes
  |> Array.to_list
  |> List.concat_map (fun (s, len) ->
         let start = s + offset in
         if len > 1 then lane_batch tr c cfg ~start ~len
         else [ scalar_trial tr c cfg ~index:start ])

(* Re-driven trials whose verdicts differ from [Campaign.run_faults] on
   the same faults.  A clean lane must be clean in the scalar flow
   too; lanes without faults are covered by one fault-free check. *)
let check_trials (cfg : Campaign.config) items =
  let clean (v, anomalies) =
    v.Campaign.controller = Repair.Passed_clean
    && v.Campaign.reference = Repair.Passed_clean
    && v.Campaign.iterated = Repair.Passed_clean
    && v.Campaign.rounds = 1 && anomalies = []
  in
  let bad = if clean (Campaign.run_faults cfg []) then 0 else 1 in
  List.fold_left
    (fun bad (_, check) ->
      match check with
      | Scalar (faults, verdicts) ->
          if Campaign.run_faults cfg faults = verdicts then bad else bad + 1
      | Lane_clean [] -> bad
      | Lane_clean faults ->
          if clean (Campaign.run_faults cfg faults) then bad else bad + 1)
    bad items

let class_count (h : Campaign.histogram) = function
  | Repair.Passed_clean -> { h with passed_clean = h.passed_clean + 1 }
  | Repair.Repaired _ -> { h with repaired = h.repaired + 1 }
  | Repair.Repair_unsuccessful Repair.Too_many_faulty_rows ->
      { h with too_many_faulty_rows = h.too_many_faulty_rows + 1 }
  | Repair.Repair_unsuccessful Repair.Fault_in_second_pass ->
      { h with fault_in_second_pass = h.fault_in_second_pass + 1 }

(* Whether the re-driven window aggregates to the library's report of
   the same window: outcome histograms, repair rounds, and every escape
   and divergence with its fault list and shrunk reproducer. *)
let matches_result (r : Campaign.result) items =
  let records = List.map fst items in
  let empty =
    { Campaign.passed_clean = 0; repaired = 0; too_many_faulty_rows = 0
    ; fault_in_second_pass = 0 }
  in
  let hist f = List.fold_left (fun h rc -> class_count h (f rc)) empty records in
  let rounds =
    let t = Hashtbl.create 8 in
    List.iter
      (fun rc ->
        Hashtbl.replace t rc.rounds
          (1 + Option.value ~default:0 (Hashtbl.find_opt t rc.rounds)))
      records;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
  in
  let ours f =
    List.sort compare
      (List.concat_map
         (fun rc -> List.map (fun x -> (x.f_trial, x.f_flow, x.f_faults, x.f_shrunk)) (f rc))
         records)
  in
  let theirs l =
    List.sort compare
      (List.map
         (fun (x : Campaign.failure) -> (x.f_trial, x.f_flow, x.f_faults, x.f_shrunk))
         l)
  in
  r.Campaign.trials_run = List.length records
  && r.Campaign.tool_errors = []
  && hist (fun rc -> rc.two_pass) = r.Campaign.two_pass
  && hist (fun rc -> rc.iterated) = r.Campaign.iterated
  && rounds = r.Campaign.rounds
  && ours (fun rc -> rc.escapes) = theirs r.Campaign.escapes
  && ours (fun rc -> rc.divergences) = theirs r.Campaign.divergences

(* ------------------------------------------------------------------ *)
(* the explore evaluators *)

let year_h = 8760.0

let yield_fields (p : Spec.point) (d : Compiler.t) =
  let org = p.org and a = d.Compiler.area in
  let g =
    if org.Org.spares = 0 then Repairable.bare ~regular_rows:(Org.rows org)
    else
      Repairable.make ~regular_rows:(Org.rows org) ~spares:org.Org.spares
        ~logic_fraction:(a.Compiler.logic_mm2 /. a.Compiler.module_mm2)
        ~growth_factor:(max 1.0 a.Compiler.growth_factor)
  in
  let two_d =
    if org.Org.spare_cols = 0 then []
    else
      let g2 =
        Repairable.make2 ~rows:(Org.rows org) ~cols:(Org.cols org)
          ~spare_rows:org.Org.spares ~spare_cols:org.Org.spare_cols
      in
      [ ("repairable2", Some (Repairable.yield2 g2 ~mean_defects:p.mean_defects ~alpha:p.alpha)) ]
  in
  [ ("repairable", Some (Repairable.yield g ~mean_defects:p.mean_defects ~alpha:p.alpha))
  ; ("repairable_poisson", Some (Repairable.yield_poisson g ~mean_defects:p.mean_defects))
  ; ("stapper_bare", Some (Stapper.stapper_yield ~mean_defects:p.mean_defects ~alpha:p.alpha))
  ]
  @ two_d

let cost_fields (spec : Spec.t) (p : Spec.point) (d : Compiler.t) =
  let a = d.Compiler.area and chip = spec.chip in
  let params =
    { Mpr.spares = p.org.Org.spares
    ; cache_rows = Org.rows p.org
    ; area_overhead = max 0.0 (a.Compiler.overhead_total_pct /. 100.0)
    ; alpha = p.alpha }
  in
  match (Mpr.die_bisr chip params, Mpr.totals_bisr chip params) with
  | Some bisr, Some tb ->
      let plain = Mpr.die_plain chip and tp = Mpr.totals_plain chip in
      [ ("cost_per_good_die", Some bisr.Mpr.cost_per_good_die)
      ; ("plain_cost_per_good_die", Some plain.Mpr.cost_per_good_die)
      ; ("chip_total", Some tb.Mpr.total)
      ; ("plain_chip_total", Some tp.Mpr.total) ]
  | _ -> []

let reliability_fields tr (p : Spec.point) =
  let org = p.org in
  let c = Rel.of_org org ~lambda:p.lambda in
  let mttf = Sample.time tr "reliability.mttf" (fun () -> Rel.mttf c) in
  let crossover =
    if org.Org.spares = 4 then None
    else
      match Org.make ~spares:4 ~words:org.Org.words ~bpw:org.Org.bpw ~bpc:org.Org.bpc () with
      | exception Invalid_argument _ -> None
      | base_org ->
          let base = Rel.of_org base_org ~lambda:p.lambda in
          let base_mttf = Sample.time tr "reliability.mttf" (fun () -> Rel.mttf base) in
          let fewer, more = if org.Org.spares < 4 then (c, base) else (base, c) in
          let t1 = 20.0 *. Float.max mttf base_mttf in
          Sample.time tr "reliability.crossover" (fun () ->
              Rel.crossover fewer more ~t0:1.0 ~t1 ~steps:4000)
  in
  [ ("mttf_h", Some mttf)
  ; ("r_1y", Some (Rel.reliability c year_h))
  ; ("r_10y", Some (Rel.reliability c (10.0 *. year_h)))
  ; ("crossover_vs_4_spares_h", crossover) ]

(* The campaign evaluator's fields and its trial count. *)
let campaign_fields (spec : Spec.t) (p : Spec.point) =
  if not (Org.simulable p.org) then ([], 0)
  else
    let repair = Option.get (Campaign.repair_of_name spec.repair) in
    let cfg =
      Campaign.make_config ~org:p.org ~march:spec.march
        ~mode:(Campaign.Clustered { mean = p.mean_defects; alpha = p.alpha })
        ~trials:spec.campaign_trials ~seed:spec.campaign_seed ~repair
        ~shrink:false ()
    in
    let r = Campaign.run ~jobs:1 cfg in
    ( [ ("repair_rate_two_pass", Some r.Campaign.observed_yield_two_pass)
      ; ("repair_rate_iterated", Some r.Campaign.observed_yield_iterated)
      ; ("escapes", Some (float_of_int (List.length r.Campaign.escapes))) ]
    , r.Campaign.trials_run )

(* One lattice point through every evaluator of the spec: per
   evaluator the re-driven fields, plus the campaign trials run. *)
let explore_point tr (spec : Spec.t) (p : Spec.point) =
  let design =
    lazy
      (Sample.time tr "core.compile" (fun () ->
           Compiler.compile (Spec.config_of_point spec p)))
  in
  let trials = ref 0 in
  let evals =
    List.map
      (fun ev ->
        ( ev
        , match ev with
          | "area" ->
              let a = (Lazy.force design).Compiler.area in
              [ ("module_mm2", Some a.Compiler.module_mm2)
              ; ("overhead_total_pct", Some a.Compiler.overhead_total_pct) ]
          | "yield" ->
              let d = Lazy.force design in
              Sample.time tr "yield.eval" (fun () -> yield_fields p d)
          | "cost" ->
              let d = Lazy.force design in
              Sample.time tr "cost.eval" (fun () -> cost_fields spec p d)
          | "reliability" -> reliability_fields tr p
          | "campaign" ->
              let fields, n =
                Sample.time tr "explore.campaign" (fun () -> campaign_fields spec p)
              in
              trials := !trials + n;
              fields
          | _ -> [] ))
      spec.evaluators
  in
  (evals, !trials)

(* Report values pass through a 9-significant-digit rendering. *)
let close a b = Float.abs (a -. b) <= 1e-8 *. Float.max 1.0 (Float.abs b)

(* Re-driven fields that disagree with the explore result's point [i]. *)
let check_point (r : Explore.result) i evals =
  List.fold_left
    (fun bad (ev, fields) ->
      let j = List.assoc_opt ev r.Explore.evals.(i) in
      List.fold_left
        (fun bad (field, ours) ->
          let theirs = Option.bind j (J.member field) in
          match (theirs, ours) with
          | Some (J.Float x), Some y when close y x -> bad
          | Some (J.Int x), Some y when close y (float_of_int x) -> bad
          | (Some J.Null | None), None -> bad
          | _ -> bad + 1)
        bad fields)
    0 evals
