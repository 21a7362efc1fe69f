module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module March = Bisram_bist.March
module Datagen = Bisram_bist.Datagen
module Fault = Bisram_faults.Fault
module Injection = Bisram_faults.Injection
module Repair = Bisram_bisr.Repair
module Tlb = Bisram_bisr.Tlb
module Repairable = Bisram_yield.Repairable
module Bira = Bisram_bira.Bira
module Proposal = Bisram_faults.Proposal
module Obs = Bisram_obs.Obs
module Pool = Bisram_parallel.Pool
module Chaos = Bisram_chaos.Chaos
module J = Bisram_obs.Json

(* ------------------------------------------------------------------ *)
(* configuration *)

(* the proposal layer's count model, under its campaign name *)
type mode = Proposal.count_model =
  | Uniform of int
  | Poisson of float
  | Clustered of { mean : float; alpha : float }

(* Which repair architecture a trial exercises.  [Row_tlb] is the
   paper's row-only TLB flow and the default; [Bira] runs the 2D
   spare-row + spare-column flow with the named allocator. *)
type repair = Row_tlb | Bira of Bira.strategy

let repair_name = function
  | Row_tlb -> "row-tlb"
  | Bira s -> Bira.strategy_name s

let repairs =
  [ Row_tlb; Bira Bira.Greedy; Bira Bira.Essential; Bira Bira.Exhaustive ]

let repair_of_name s =
  List.find_opt (fun r -> String.equal (repair_name r) s) repairs

type config = {
  org : Org.t;
  march : March.t;
  mix : Injection.mix;
  mode : mode;
  proposal : Proposal.t option;
  repair : repair;
  trials : int;
  seed : int;
  max_seconds : float option;
  shrink : bool;
  max_rounds : int;
}

(* A count model's parameters: a count of at least 0, a finite mean of
   at least 0 and a finite positive alpha (a NaN or infinite mean has no
   draw). *)
let bad_mode ~who what v =
  invalid_arg (Printf.sprintf "%s: %s (got %g)" who what v)

let check_mean ~who m =
  if not (Float.is_finite m && m >= 0.0) then
    bad_mode ~who "mean must be finite and >= 0" m

let check_mode ~who = function
  | Uniform n -> if n < 0 then bad_mode ~who "faults must be >= 0" (float_of_int n)
  | Poisson m -> check_mean ~who m
  | Clustered { mean; alpha } ->
      check_mean ~who mean;
      if not (Float.is_finite alpha && alpha > 0.0) then
        bad_mode ~who "alpha must be finite and > 0" alpha

let make_config ?(org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ())
    ?march ?(mix = Injection.default_mix) ?(mode = Uniform 2) ?proposal
    ?(repair = Row_tlb) ?(trials = 100) ?(seed = 42) ?max_seconds
    ?(shrink = true) ?(max_rounds = 8) () =
  let march =
    match march with Some m -> m | None -> Bisram_bist.Algorithms.ifa_9
  in
  Injection.validate_mix mix;
  if not (Org.simulable org) then
    invalid_arg "Campaign.make_config: organization is not simulable (bpw too wide)";
  if trials < 0 then invalid_arg "Campaign.make_config: trials";
  if max_rounds < 1 then invalid_arg "Campaign.make_config: max_rounds";
  check_mode ~who:"Campaign.make_config" mode;
  (* identity proposals are normalized to [None] so that "no biasing"
     has one spelling: reports, checkpoint compat strings and the
     estimation-on predicate all agree *)
  let proposal =
    match proposal with
    | Some p when Proposal.is_nominal p -> None
    | p -> p
  in
  Option.iter
    (fun p -> Proposal.validate ~nominal_mix:mix mode p)
    proposal;
  { org; march; mix; mode; proposal; repair; trials; seed; max_seconds
  ; shrink; max_rounds }

(* ------------------------------------------------------------------ *)
(* seed discipline *)

(* Every trial is driven by its own integer seed, derived from the
   campaign seed by an avalanching integer mix, so a one-line
   [--replay SEED] reconstructs any trial without re-running the
   campaign.  Masked to 30 bits to keep seeds short and portable. *)
let mix_int x =
  let x = x land max_int in
  let x = x lxor (x lsr 33) in
  let x = x * 0x735A2D97 land max_int in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B873593 land max_int in
  x lxor (x lsr 32)

let trial_seed cfg i = mix_int ((cfg.seed * 0x3C6EF35F) + i + 1) land 0x3FFFFFFF

let rng_of_seed seed = Random.State.make [| 0xB15; seed |]

(* ------------------------------------------------------------------ *)
(* fault drawing *)

(* A configuration's trial draw, from a trial seed to its fault list,
   checked and prepared once per [run] or [replay], before any trial: a
   configuration made by record update never went through
   [make_config].  The defect field covers the whole physical array,
   spare lines included.  The nominal proposal draws exactly as the
   unbiased sampler. *)
let drawer ~who cfg =
  check_mode ~who cfg.mode;
  if cfg.max_rounds < 1 then invalid_arg (who ^ ": max_rounds");
  let s =
    Proposal.sampler
      (Option.value cfg.proposal ~default:Proposal.nominal)
      ~count:cfg.mode ~mix:cfg.mix
  in
  let rows = Org.total_rows cfg.org and cols = Org.total_cols cfg.org in
  fun seed -> Proposal.sample s (rng_of_seed seed) ~rows ~cols

(* The importance weight of a drawn fault list; 1 without a proposal. *)
let weight_of cfg faults =
  match cfg.proposal with
  | None -> 1.0
  | Some p -> exp (Proposal.log_weight p ~count:cfg.mode ~mix:cfg.mix faults)

(* The weight of a trial whose fault list is not at hand (a resumed or
   crashed trial), recovered by redrawing it from its seed. *)
let redrawn_weight cfg draw seed =
  match cfg.proposal with None -> 1.0 | Some _ -> weight_of cfg (draw seed)

(* ------------------------------------------------------------------ *)
(* one trial: differential oracle + escape sweeps *)

type flow = Two_pass | Iterated

let flow_name = function Two_pass -> "two-pass" | Iterated -> "iterated"

type anomaly =
  | Escape of { flow : flow; mismatches : Sweep.mismatch list }
  | Divergence of { detail : string }

let success = function
  | Repair.Passed_clean | Repair.Repaired _ -> true
  | Repair.Repair_unsuccessful _ -> false

let model_with cfg faults =
  let m = Model.create cfg.org in
  Model.set_faults m faults;
  m

let backgrounds cfg = Datagen.required_backgrounds ~bpw:cfg.org.Org.bpw

type verdicts = {
  controller : Repair.outcome;
  reference : Repair.outcome;
  iterated : Repair.outcome;
  rounds : int;
  cycles : int;
  alloc : (int list * int list) option;
}

(* Flush the per-model access-path counters into the telemetry
   registry; summed over the models of a trial's sides (and over trials
   by the registry merge), they give the campaign-wide fast/legacy hit
   ratios.  "Legacy" is every op on a fault-armed row; the packed store
   served [armed_packed_ops] of them.  Deterministic values, so the
   merged counters are identical at every job count. *)
let flush_model_stats m =
  let s = Model.stats m in
  Obs.add "model.reads" s.Model.s_reads;
  Obs.add "model.writes" s.Model.s_writes;
  Obs.add "model.fast_reads" s.Model.s_fast_reads;
  Obs.add "model.fast_writes" s.Model.s_fast_writes;
  Obs.add "model.armed_packed_ops" s.Model.s_armed_packed;
  Obs.add "model.legacy_reads" (s.Model.s_reads - s.Model.s_fast_reads);
  Obs.add "model.legacy_writes" (s.Model.s_writes - s.Model.s_fast_writes);
  Obs.add "model.rows_cleared" s.Model.s_rows_cleared

(* A trial fills three roles: the flow [Under_test], the [Oracle] it is
   held against, and the [Iterating] flow behind the repair-effort
   histogram.  Each flow run — detect, allocate, arm, verify — gets its
   own freshly armed model (a run mutates array contents and remap);
   one run may fill several roles, which then share its model. *)
type role = Under_test | Oracle | Iterating

let role_span = function
  | Under_test -> "march"
  | Oracle -> "oracle"
  | Iterating -> "repair"

(* What the oracle compares: the mapped TLB rows, or the armed BIRA
   allocation. *)
type alloc = Tlb_rows of int list | Lines of Bira.alloc option

let pp_alloc =
  let ints l = String.concat "," (List.map string_of_int l) in
  function
  | Tlb_rows r -> Printf.sprintf "rows [%s]" (ints r)
  | Lines None -> "none"
  | Lines (Some a) ->
      Printf.sprintf "rows [%s] cols [%s]" (ints a.Bira.a_rows)
        (ints a.Bira.a_cols)

(* One side's result: [s_rounds] are the verify rounds (1 for a
   single-verify flow), [s_model] the armed model an escape sweep
   reads. *)
type side = {
  s_outcome : Repair.outcome;
  s_alloc : alloc;
  s_rounds : int;
  s_cycles : int option;  (** where a microprogrammed controller ran *)
  s_model : Model.t;
}

(* The per-architecture facts of the trial flow, in one place. *)
type arch = {
  flows : (role list * (Fault.t list -> side list)) list;
      (** the flow runs of a trial, in order, each with the roles its
          sides fill *)
  swept : flow -> role;  (** the side an escape of each flow label sweeps *)
  iterated_by : role;  (** the side whose verdict is reported as iterated *)
}

(* Row-TLB: the paper's microprogrammed controller under test, and one
   engine run of the iterated 2k-pass flow, which also yields the
   functional two-pass oracle (its verdict and TLB rows are read off
   verify round 1); the oracle compares the mapped TLB rows.  BIRA:
   there is no controller for the 2D flow, so the packed-word
   comparator analog ([fast:true] fault extraction) is under test
   against the bit-by-bit reference; the flow iterates (spare burning)
   on both sides, so the reference also carries the iterated escape
   sweep, and the analog's verdict is reported for both flows. *)
let arch cfg =
  let bgs = backgrounds cfg and march = cfg.march in
  let side ?(rounds = 1) ?cycles s_outcome s_alloc s_model =
    { s_outcome; s_alloc; s_rounds = rounds; s_cycles = cycles; s_model }
  in
  match cfg.repair with
  | Row_tlb ->
      let controller faults =
        let m = model_with cfg faults in
        let o, report, tlb = Repair.run m march ~backgrounds:bgs in
        [ side o
            (Tlb_rows (Tlb.mapped_rows tlb))
            ~cycles:report.Bisram_bist.Controller.cycles m
        ]
      in
      let engine faults =
        let m = model_with cfg faults in
        let f =
          Repair.run_flows ~max_rounds:cfg.max_rounds m march ~backgrounds:bgs
        in
        let it = f.Repair.iterated in
        [ side it.Repair.i_outcome
            (Tlb_rows (Tlb.mapped_rows it.Repair.i_tlb))
            ~rounds:it.Repair.i_rounds m
        ; side f.Repair.reference (Tlb_rows f.Repair.reference_rows) m
        ]
      in
      { flows =
          [ ([ Under_test ], controller); ([ Iterating; Oracle ], engine) ]
      ; swept = (function Two_pass -> Under_test | Iterated -> Iterating)
      ; iterated_by = Iterating
      }
  | Bira strat ->
      let bira ~fast faults =
        let m = model_with cfg faults in
        let r =
          Bira.run ~max_rounds:cfg.max_rounds ~fast strat m march
            ~backgrounds:bgs
        in
        [ side r.Bira.b_outcome (Lines r.Bira.b_alloc)
            ~rounds:r.Bira.b_rounds m
        ]
      in
      { flows =
          [ ([ Under_test ], bira ~fast:true); ([ Oracle ], bira ~fast:false) ]
      ; swept = (function Two_pass -> Under_test | Iterated -> Oracle)
      ; iterated_by = Under_test
      }

let run_flow faults (roles, run) = List.combine roles (run faults)

(* Only the flow runs that fill one of [roles]. *)
let run_roles a roles faults =
  List.concat_map (run_flow faults)
    (List.filter (fun (rs, _) -> List.exists (fun r -> List.mem r roles) rs)
       a.flows)

(* The differential oracle on an under-test/oracle pair: outcome first,
   then the allocation both passing sides armed. *)
let divergence c r =
  let diverged detail = Some (Divergence { detail }) in
  if c.s_outcome <> r.s_outcome then
    diverged
      (Format.asprintf "outcome: controller %a, reference %a" Repair.pp_outcome
         c.s_outcome Repair.pp_outcome r.s_outcome)
  else if success c.s_outcome && c.s_alloc <> r.s_alloc then
    diverged
      (Printf.sprintf "%s: controller %s, reference %s"
         (match c.s_alloc with Tlb_rows _ -> "TLB" | Lines _ -> "BIRA alloc")
         (pp_alloc c.s_alloc) (pp_alloc r.s_alloc))
  else None

let run_faults cfg faults =
  let a = arch cfg in
  let sides =
    List.concat_map
      (fun ((roles, _) as fl) ->
        let s =
          Obs.span ~cat:"campaign"
            (role_span (List.hd roles))
            (fun () -> run_flow faults fl)
        in
        (* between flows: the cooperative per-trial deadline (a no-op
           unless [run] armed one) *)
        Pool.check_deadline ();
        s)
      a.flows
  in
  let side role = List.assoc role sides in
  let c = side Under_test and r = side Oracle and it = side a.iterated_by in
  let divergences = Option.to_list (divergence c r) in
  (* silent escapes: the array disagrees with a passing verdict *)
  let escapes =
    List.filter_map
      (fun flow ->
        let s = side (a.swept flow) in
        if not (success s.s_outcome) then None
        else
          match
            Obs.span ~cat:"campaign" "escape-sweep" (fun () ->
                Sweep.run s.s_model)
          with
          | [] -> None
          | mismatches -> Some (Escape { flow; mismatches }))
      [ Two_pass; Iterated ]
  in
  if Obs.enabled () then begin
    (* roles filled by one run share its model: flush each model once *)
    List.fold_left
      (fun ms (_, s) -> if List.memq s.s_model ms then ms else s.s_model :: ms)
      [] sides
    |> List.iter flush_model_stats;
    Option.iter (Obs.observe "campaign.cycles") c.s_cycles;
    Obs.observe "campaign.repair_rounds" it.s_rounds
  end;
  ( { controller = c.s_outcome
    ; reference = r.s_outcome
    ; iterated = it.s_outcome
    ; rounds = it.s_rounds
    ; cycles = Option.value ~default:0 c.s_cycles
    ; alloc =
        (match c.s_alloc with
        | Lines a -> Option.map (fun a -> (a.Bira.a_rows, a.Bira.a_cols)) a
        | Tlb_rows _ -> None)
    }
  , divergences @ escapes )

type trial = {
  t_index : int;  (** -1 for a replay outside a campaign *)
  t_seed : int;
  t_faults : Fault.t list;
  t_verdicts : verdicts;
  t_anomalies : anomaly list;
}

let draw_seeded draw seed = Obs.span ~cat:"campaign" "inject" (fun () -> draw seed)

(* the per-trial counters, for simulated and zero-fault trials alike *)
let count_trial faults =
  Obs.incr "campaign.trials";
  Obs.add "campaign.faults_injected" (List.length faults);
  Obs.observe "campaign.faults_per_trial" (List.length faults)

(* The full flow on a trial's drawn fault list. *)
let run_drawn cfg ~index ~seed faults =
  let verdicts, anomalies = run_faults cfg faults in
  count_trial faults;
  { t_index = index
  ; t_seed = seed
  ; t_faults = faults
  ; t_verdicts = verdicts
  ; t_anomalies = anomalies
  }

let replay cfg ~seed =
  let draw = drawer ~who:"Campaign.replay" cfg in
  Obs.span ~cat:"campaign" ~arg:("trial", -1) "trial" (fun () ->
      run_drawn cfg ~index:(-1) ~seed (draw_seeded draw seed))

(* ------------------------------------------------------------------ *)
(* shrinking *)

(* The delta-debugging predicate re-runs only the flows the anomaly
   needs: the swept side's for an escape, the oracle pair's for a
   divergence.  The trial itself established the anomaly on [faults],
   so the shrinker does not re-check the full list.  With
   [~fault_free_clean] (the fault-free flow is known to be clean, as
   [check_zero_fault_flow] establishes for every campaign) the empty
   list is answered without simulating it: no anomaly there. *)
let shrink_with cfg ~fault_free_clean anomaly faults =
  if not cfg.shrink then faults
  else
    let a = arch cfg in
    let keep =
      match anomaly with
      | Escape { flow; _ } ->
          fun fs ->
            let role = a.swept flow in
            let s = List.assoc role (run_roles a [ role ] fs) in
            success s.s_outcome && not (Sweep.clean s.s_model)
      | Divergence _ ->
          fun fs ->
            let sides = run_roles a [ Under_test; Oracle ] fs in
            Option.is_some
              (divergence
                 (List.assoc Under_test sides)
                 (List.assoc Oracle sides))
    in
    let keep = function [] when fault_free_clean -> false | fs -> keep fs in
    Shrink.minimize_failing ~keep faults

let shrink_anomaly cfg anomaly faults =
  shrink_with cfg ~fault_free_clean:false anomaly faults

(* ------------------------------------------------------------------ *)
(* campaign results *)

type histogram = {
  passed_clean : int;
  repaired : int;
  too_many_faulty_rows : int;
  fault_in_second_pass : int;
}

let empty_histogram =
  { passed_clean = 0
  ; repaired = 0
  ; too_many_faulty_rows = 0
  ; fault_in_second_pass = 0
  }

(* A trial's outcome class is what the report histograms and the
   checkpoint records need: the [Repair.outcome] without its repaired
   row list, which never reaches the report, so serializing it would
   only widen the checkpoint format. *)
type outcome_class = Passed_clean | Repaired | Unsuccessful of Repair.reason

let outcome_class : Repair.outcome -> outcome_class = function
  | Repair.Passed_clean -> Passed_clean
  | Repair.Repaired _ -> Repaired
  | Repair.Repair_unsuccessful r -> Unsuccessful r

let count_class h = function
  | Passed_clean -> { h with passed_clean = h.passed_clean + 1 }
  | Repaired -> { h with repaired = h.repaired + 1 }
  | Unsuccessful Repair.Too_many_faulty_rows ->
      { h with too_many_faulty_rows = h.too_many_faulty_rows + 1 }
  | Unsuccessful Repair.Fault_in_second_pass ->
      { h with fault_in_second_pass = h.fault_in_second_pass + 1 }

type failure_kind = Silent_escape | Oracle_divergence

type failure = {
  f_trial : int;
  f_seed : int;
  f_kind : failure_kind;
  f_flow : string;  (** "two-pass", "iterated" or "oracle" *)
  f_detail : string;
  f_faults : Fault.t list;
  f_shrunk : Fault.t list;
}

type tool_error = {
  te_trial : int;
  te_seed : int;
  te_error : string;
}

(* Weighted-tally machinery for the estimator layer.  When a proposal
   is armed, every trial carries an importance weight w; an indicator
   keeps the trial count, sum of weights and sum of squared weights of
   the trials where it fired, which is all the downstream
   effective-sample-size interval math needs.  Sums accumulate in
   strict trial-index order, so they are bit-identical however the
   trials were batched. *)

type indicator = { t_trials : int; t_w : float; t_w2 : float }

let empty_indicator = { t_trials = 0; t_w = 0.0; t_w2 = 0.0 }

let indicator_add t w =
  { t_trials = t.t_trials + 1; t_w = t.t_w +. w; t_w2 = t.t_w2 +. (w *. w) }

type weighted = {
  wn : int;
  w_sum : float;
  w_sum2 : float;
  w_escape : indicator;
  w_repair_fail_two_pass : indicator;
  w_repair_fail_iterated : indicator;
}

let empty_weighted =
  { wn = 0
  ; w_sum = 0.0
  ; w_sum2 = 0.0
  ; w_escape = empty_indicator
  ; w_repair_fail_two_pass = empty_indicator
  ; w_repair_fail_iterated = empty_indicator
  }

type result = {
  config : config;
  trials_run : int;
  truncated : bool;
  resumed_trials : int;
  two_pass : histogram;
  iterated : histogram;
  rounds : (int * int) list;  (** (verify rounds, trial count), sorted *)
  escapes : failure list;
  divergences : failure list;
  tool_errors : tool_error list;
  observed_yield_two_pass : float;
  observed_yield_iterated : float;
  weighted : weighted option;
}

let analytic_yield cfg =
  match cfg.repair with
  | Bira _ ->
      (* 2D repair: the row-only closed form does not apply, so the
         report embeds the deterministic seeded Monte-Carlo estimate
         with the exact cover predicate *)
      let g2 =
        Repairable.make2 ~rows:(Org.rows cfg.org) ~cols:(Org.cols cfg.org)
          ~spare_rows:cfg.org.Org.spares ~spare_cols:cfg.org.Org.spare_cols
      in
      (match cfg.mode with
      | Uniform n -> Repairable.p_repairable2 g2 n
      | Poisson mean -> Repairable.yield2_poisson g2 ~mean_defects:mean
      | Clustered { mean; alpha } ->
          Repairable.yield2 g2 ~mean_defects:mean ~alpha)
  | Row_tlb -> (
      let regular_rows = Org.rows cfg.org and spares = cfg.org.Org.spares in
      let g =
        if spares = 0 then Repairable.bare ~regular_rows
        else
          Repairable.make ~regular_rows ~spares ~logic_fraction:0.0
            ~growth_factor:1.0
      in
      match cfg.mode with
      | Uniform n -> Repairable.p_repairable g n
      | Poisson mean -> Repairable.yield_poisson g ~mean_defects:mean
      | Clustered { mean; alpha } ->
          Repairable.yield g ~mean_defects:mean ~alpha)

let failure_of_anomaly cfg trial anomaly =
  let f_kind, f_flow, f_detail =
    match anomaly with
    | Escape { flow; mismatches } ->
        Obs.incr "campaign.escapes";
        let first =
          match mismatches with
          | m :: _ -> Format.asprintf "; first: %a" Sweep.pp_mismatch m
          | [] -> ""
        in
        ( Silent_escape
        , flow_name flow
        , Printf.sprintf "%d mismatching read(s)%s" (List.length mismatches)
            first )
    | Divergence { detail } ->
        Obs.incr "campaign.divergences";
        (Oracle_divergence, "oracle", detail)
  in
  { f_trial = trial.t_index
  ; f_seed = trial.t_seed
  ; f_kind
  ; f_flow
  ; f_detail
  ; f_faults = trial.t_faults
  ; f_shrunk =
      Obs.span ~cat:"campaign" ~arg:("trial", trial.t_index) "shrink"
        (fun () ->
          (* only [run] computes records, after [check_zero_fault_flow] *)
          shrink_with cfg ~fault_free_clean:true anomaly trial.t_faults)
  }

(* ------------------------------------------------------------------ *)
(* JSON rendering (also the checkpoint wire format) *)

let cell_json (c : Fault.cell) =
  J.Obj [ ("row", J.Int c.Fault.row); ("col", J.Int c.Fault.col) ]

let fault_json = function
  | Fault.Stuck_at (c, v) ->
      J.Obj
        [ ("class", J.String "SAF"); ("cell", cell_json c); ("value", J.Bool v) ]
  | Fault.Transition (c, up) ->
      J.Obj
        [ ("class", J.String "TF"); ("cell", cell_json c); ("rising", J.Bool up) ]
  | Fault.Stuck_open c ->
      J.Obj [ ("class", J.String "SOF"); ("cell", cell_json c) ]
  | Fault.Coupling_inversion { aggressor; victim } ->
      J.Obj
        [ ("class", J.String "CFin")
        ; ("aggressor", cell_json aggressor)
        ; ("victim", cell_json victim)
        ]
  | Fault.Coupling_idempotent { aggressor; rising; victim; forces } ->
      J.Obj
        [ ("class", J.String "CFid")
        ; ("aggressor", cell_json aggressor)
        ; ("rising", J.Bool rising)
        ; ("victim", cell_json victim)
        ; ("forces", J.Bool forces)
        ]
  | Fault.State_coupling { aggressor; when_state; victim; reads_as } ->
      J.Obj
        [ ("class", J.String "CFst")
        ; ("aggressor", cell_json aggressor)
        ; ("when_state", J.Bool when_state)
        ; ("victim", cell_json victim)
        ; ("reads_as", J.Bool reads_as)
        ]
  | Fault.Data_retention (c, v) ->
      J.Obj
        [ ("class", J.String "DRF")
        ; ("cell", cell_json c)
        ; ("decays_to", J.Bool v)
        ]

let mode_json = function
  | Uniform n -> J.Obj [ ("kind", J.String "uniform"); ("faults", J.Int n) ]
  | Poisson mean ->
      J.Obj [ ("kind", J.String "poisson"); ("mean", J.Float mean) ]
  | Clustered { mean; alpha } ->
      J.Obj
        [ ("kind", J.String "clustered")
        ; ("mean", J.Float mean)
        ; ("alpha", J.Float alpha)
        ]

let mix_json (m : Injection.mix) =
  J.Obj
    [ ("stuck_at", J.Float m.Injection.stuck_at)
    ; ("transition", J.Float m.Injection.transition)
    ; ("stuck_open", J.Float m.Injection.stuck_open)
    ; ("coupling_inversion", J.Float m.Injection.coupling_inversion)
    ; ("coupling_idempotent", J.Float m.Injection.coupling_idempotent)
    ; ("state_coupling", J.Float m.Injection.state_coupling)
    ; ("data_retention", J.Float m.Injection.data_retention)
    ]

let proposal_json (p : Proposal.t) =
  let count =
    match p.Proposal.count with
    | Proposal.Count_nominal -> J.Obj [ ("kind", J.String "nominal") ]
    | Proposal.Scaled { scale; shift } ->
        J.Obj
          [ ("kind", J.String "scaled")
          ; ("scale", J.Float scale)
          ; ("shift", J.Float shift)
          ]
    | Proposal.Stratified { nonzero } ->
        J.Obj
          [ ("kind", J.String "stratified"); ("nonzero", J.Float nonzero) ]
  in
  J.Obj
    [ ("count", count)
    ; ("mix", match p.Proposal.mix with None -> J.Null | Some m -> mix_json m)
    ]

let config_json cfg =
  J.Obj
    ([ ( "org"
       , J.Obj
           ([ ("words", J.Int cfg.org.Org.words)
            ; ("bpw", J.Int cfg.org.Org.bpw)
            ; ("bpc", J.Int cfg.org.Org.bpc)
            ; ("spares", J.Int cfg.org.Org.spares)
            ]
           (* like [proposal] below: the key appears only when the
              organization actually has spare columns, so every
              row-only config keeps its historical bytes *)
           @
           if cfg.org.Org.spare_cols > 0 then
             [ ("spare_cols", J.Int cfg.org.Org.spare_cols) ]
           else []) )
     ; ("march", J.String cfg.march.March.name)
     ; ("mix", mix_json cfg.mix)
     ; ("mode", mode_json cfg.mode)
     ]
    (* rendered only when armed: estimation-off configs keep their
       pre-proposal bytes, so reports and checkpoint compat strings
       from earlier versions stay valid *)
    @ (match cfg.proposal with
      | None -> []
      | Some p -> [ ("proposal", proposal_json p) ])
    @ (match cfg.repair with
      | Row_tlb -> []
      | r -> [ ("repair", J.String (repair_name r)) ])
    @ [ ("trials", J.Int cfg.trials)
      ; ("seed", J.Int cfg.seed)
      ; ( "max_seconds"
        , match cfg.max_seconds with None -> J.Null | Some s -> J.Float s )
      ; ("shrink", J.Bool cfg.shrink)
      ; ("max_rounds", J.Int cfg.max_rounds)
      ])

let histogram_json h =
  J.Obj
    [ ("passed_clean", J.Int h.passed_clean)
    ; ("repaired", J.Int h.repaired)
    ; ("too_many_faulty_rows", J.Int h.too_many_faulty_rows)
    ; ("fault_in_second_pass", J.Int h.fault_in_second_pass)
    ]

(* the record spelling of each failure kind *)
let kind_names =
  [ (Silent_escape, "escape"); (Oracle_divergence, "divergence") ]

let failure_json f =
  J.Obj
    [ ("trial", J.Int f.f_trial)
    ; ("seed", J.Int f.f_seed)
    ; ("kind", J.String (List.assoc f.f_kind kind_names))
    ; ("flow", J.String f.f_flow)
    ; ("detail", J.String f.f_detail)
    ; ("faults", J.List (List.map fault_json f.f_faults))
    ; ("shrunk", J.List (List.map fault_json f.f_shrunk))
    ]

let tool_error_json e =
  J.Obj
    [ ("trial", J.Int e.te_trial)
    ; ("seed", J.Int e.te_seed)
    ; ("error", J.String e.te_error)
    ]

(* ------------------------------------------------------------------ *)
(* JSON parsing (checkpoint resume)

   Exact inverses of the renderers above: a record that round-trips
   through parse + re-render yields the same bytes, which is what makes
   a resumed report byte-identical to an uninterrupted run.  Parsers
   are total — any unexpected shape is [None], never an exception — so
   a corrupt checkpoint degrades to recomputation. *)

let ( let* ) = Option.bind

let field_int k j =
  match J.member k j with Some (J.Int i) -> Some i | _ -> None

let field_str k j =
  match J.member k j with Some (J.String s) -> Some s | _ -> None

let field_bool k j =
  match J.member k j with Some (J.Bool b) -> Some b | _ -> None

let field_list k j =
  match J.member k j with Some (J.List l) -> Some l | _ -> None

(* a variant field by its spelling in [names]; an unknown one is [None] *)
let field_enum names k j =
  let* name = field_str k j in
  List.find_map
    (fun (c, n) -> if String.equal n name then Some c else None)
    names

let all_opt f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Some (y :: acc))
    l (Some [])

let cell_of_json j =
  let* row = field_int "row" j in
  let* col = field_int "col" j in
  Some { Fault.row; col }

let field_cell k j =
  let* c = J.member k j in
  cell_of_json c

let fault_of_json j =
  let* cls = field_str "class" j in
  match cls with
  | "SAF" ->
      let* c = field_cell "cell" j in
      let* v = field_bool "value" j in
      Some (Fault.Stuck_at (c, v))
  | "TF" ->
      let* c = field_cell "cell" j in
      let* up = field_bool "rising" j in
      Some (Fault.Transition (c, up))
  | "SOF" ->
      let* c = field_cell "cell" j in
      Some (Fault.Stuck_open c)
  | "CFin" ->
      let* aggressor = field_cell "aggressor" j in
      let* victim = field_cell "victim" j in
      Some (Fault.Coupling_inversion { aggressor; victim })
  | "CFid" ->
      let* aggressor = field_cell "aggressor" j in
      let* rising = field_bool "rising" j in
      let* victim = field_cell "victim" j in
      let* forces = field_bool "forces" j in
      Some (Fault.Coupling_idempotent { aggressor; rising; victim; forces })
  | "CFst" ->
      let* aggressor = field_cell "aggressor" j in
      let* when_state = field_bool "when_state" j in
      let* victim = field_cell "victim" j in
      let* reads_as = field_bool "reads_as" j in
      Some (Fault.State_coupling { aggressor; when_state; victim; reads_as })
  | "DRF" ->
      let* c = field_cell "cell" j in
      let* v = field_bool "decays_to" j in
      Some (Fault.Data_retention (c, v))
  | _ -> None

let failure_of_json j =
  let* f_trial = field_int "trial" j in
  let* f_seed = field_int "seed" j in
  let* f_kind = field_enum kind_names "kind" j in
  let* f_flow = field_str "flow" j in
  let* f_detail = field_str "detail" j in
  let* faults = field_list "faults" j in
  let* shrunk = field_list "shrunk" j in
  let* f_faults = all_opt fault_of_json faults in
  let* f_shrunk = all_opt fault_of_json shrunk in
  Some { f_trial; f_seed; f_kind; f_flow; f_detail; f_faults; f_shrunk }

(* ------------------------------------------------------------------ *)
(* trial records: the unit of aggregation and checkpointing

   A record is everything the final report consumes from one trial —
   outcome classes, repair rounds, failure records — or the recorded
   tool error when the trial itself crashed.  [compute_record] is a
   deterministic function of (config, index), so records parsed back
   from a checkpoint are indistinguishable from recomputed ones.  The
   importance weight rides on the in-memory record only: the checkpoint
   does not carry it, and a resumed record's is recomputed. *)

type trial_record = {
  rc_index : int;
  rc_seed : int;
  rc_body : rc_body;
  rc_weight : float;  (** importance weight; 1 without a proposal *)
}

and rc_body =
  | Rc_ok of {
      rc_two_pass : outcome_class;
      rc_iterated : outcome_class;
      rc_rounds : int;
      rc_alloc : (int list * int list) option;
          (** BIRA spare allocation (rows, cols); [None] for the TLB
              flow and for unrepaired trials *)
      rc_failures : failure list;  (** per-trial, anomaly order *)
    }
  | Rc_error of string

(* the record spelling of each outcome class: its histogram key *)
let class_names =
  [ (Passed_clean, "passed_clean")
  ; (Repaired, "repaired")
  ; (Unsuccessful Repair.Too_many_faulty_rows, "too_many_faulty_rows")
  ; (Unsuccessful Repair.Fault_in_second_pass, "fault_in_second_pass")
  ]

let record_json r =
  let common = [ ("trial", J.Int r.rc_index); ("seed", J.Int r.rc_seed) ] in
  match r.rc_body with
  | Rc_ok o ->
      J.Obj
        (common
        @ [ ("two_pass", J.String (List.assoc o.rc_two_pass class_names))
          ; ("iterated", J.String (List.assoc o.rc_iterated class_names))
          ; ("rounds", J.Int o.rc_rounds)
          ]
        (* only BIRA trials carry an allocation, so TLB records keep
           their historical bytes *)
        @ (match o.rc_alloc with
          | None -> []
          | Some (rows, cols) ->
              [ ( "alloc"
                , J.Obj
                    [ ("rows", J.List (List.map (fun r -> J.Int r) rows))
                    ; ("cols", J.List (List.map (fun c -> J.Int c) cols))
                    ] )
              ])
        @ [ ("failures", J.List (List.map failure_json o.rc_failures)) ])
  | Rc_error e -> J.Obj (common @ [ ("error", J.String e) ])

(* The weight is left at 1: [load_checkpoint] recomputes it under a
   proposal. *)
let record_of_json j =
  let* rc_index = field_int "trial" j in
  let* rc_seed = field_int "seed" j in
  let record rc_body = Some { rc_index; rc_seed; rc_body; rc_weight = 1.0 } in
  match field_str "error" j with
  | Some e -> record (Rc_error e)
  | None ->
      let* rc_two_pass = field_enum class_names "two_pass" j in
      let* rc_iterated = field_enum class_names "iterated" j in
      let* rc_rounds = field_int "rounds" j in
      let* rc_alloc =
        match J.member "alloc" j with
        | None -> Some None
        | Some a ->
            let int_of = function J.Int i -> Some i | _ -> None in
            let* rl = field_list "rows" a in
            let* cl = field_list "cols" a in
            let* rows = all_opt int_of rl in
            let* cols = all_opt int_of cl in
            Some (Some (rows, cols))
      in
      let* failures = field_list "failures" j in
      let* rc_failures = all_opt failure_of_json failures in
      record
        (Rc_ok { rc_two_pass; rc_iterated; rc_rounds; rc_alloc; rc_failures })

let body_of_verdicts v rc_failures =
  Rc_ok
    { rc_two_pass = outcome_class v.controller
    ; rc_iterated = outcome_class v.iterated
    ; rc_rounds = v.rounds
    ; rc_alloc = v.alloc
    ; rc_failures
    }

(* The record of a trial whose whole flow was clean: what a zero-fault
   trial resolves to, and what [p_clean] counts.  Every zero-fault trial
   shares this one value, so most clean records are recognized by
   physical equality. *)
let clean_body =
  Rc_ok
    { rc_two_pass = Passed_clean
    ; rc_iterated = Passed_clean
    ; rc_rounds = 1
    ; rc_alloc = None
    ; rc_failures = []
    }

let is_clean body = body == clean_body || body = clean_body

(* Resolving a zero-fault trial to [clean_body] is sound only if the
   flow on a fault-free array is clean: a march that fails a fault-free
   cell, or a repair flow that arms a spare for one, would make every
   such record wrong.  [run] simulates that flow once and refuses the
   configuration otherwise. *)
let check_zero_fault_flow cfg =
  match run_faults cfg [] with
  | v, [] when is_clean (body_of_verdicts v []) -> ()
  | _ ->
      failwith
        (Printf.sprintf
           "Campaign.run: march %s (%s) is not clean on a fault-free array"
           cfg.march.March.name (March.to_string cfg.march))

(* One trial, at every pool-item width.  A trial that draws no fault is
   a pure function of the configuration, so its record is
   [clean_body] and no model is built; any other trial runs the full
   flow on the list it drew. *)
let compute_record cfg draw ~index =
  let seed = trial_seed cfg index in
  let simulated =
    Obs.span ~cat:"campaign" ~arg:("trial", index) "trial" (fun () ->
        match draw_seeded draw seed with
        | [] ->
            count_trial [];
            Obs.incr "campaign.zero_fault_trials";
            None
        | faults -> Some (run_drawn cfg ~index ~seed faults))
  in
  let rc_body =
    match simulated with
    | None -> clean_body
    | Some t ->
        body_of_verdicts t.t_verdicts
          (List.map (failure_of_anomaly cfg t) t.t_anomalies)
  in
  let faults = match simulated with None -> [] | Some t -> t.t_faults in
  { rc_index = index; rc_seed = seed; rc_body; rc_weight = weight_of cfg faults }

(* ------------------------------------------------------------------ *)
(* the trial-record tally

   The one definition of how a trial record counts: the outcome
   histograms, the repair-rounds table, the escape/divergence
   partition, tool errors, the clean count and, under a proposal, the
   importance weights.  [run]'s fold is its one caller, in strict
   trial order. *)

type counts = {
  mutable c_trials : int;
  mutable c_two_pass : histogram;
  mutable c_iterated : histogram;
  c_rounds : int array;
      (** verify rounds below [dense_rounds] -> trials *)
  mutable c_rounds_over : (int * int) list;
      (** the rarer round counts past it, ascending *)
  mutable c_escapes : failure list;  (** newest first, like the next two *)
  mutable c_divergences : failure list;
  mutable c_tool_errors : tool_error list;
  mutable c_n_escapes : int;
  mutable c_n_divergences : int;
  mutable c_n_tool_errors : int;
  mutable c_clean : int;  (** records added (a result does not carry it) *)
  mutable c_weighted : weighted option;
}

(* Rounds are counted in an array up to this bound and in a list past
   it: a flow seldom runs more than a few rounds, and [max_rounds] is
   not bounded. *)
let dense_rounds = 16

let counts cfg =
  { c_trials = 0
  ; c_two_pass = empty_histogram
  ; c_iterated = empty_histogram
  ; c_rounds = Array.make dense_rounds 0
  ; c_rounds_over = []
  ; c_escapes = []
  ; c_divergences = []
  ; c_tool_errors = []
  ; c_n_escapes = 0
  ; c_n_divergences = 0
  ; c_n_tool_errors = 0
  ; c_clean = 0
  ; c_weighted = Option.map (fun _ -> empty_weighted) cfg.proposal
  }

let add_round c r =
  if r < dense_rounds then c.c_rounds.(r) <- c.c_rounds.(r) + 1
  else
    let rec bump = function
      | (r', n) :: rest when r' = r -> (r, n + 1) :: rest
      | ((r', _) as p) :: rest when r' < r -> p :: bump rest
      | l -> (r, 1) :: l
    in
    c.c_rounds_over <- bump c.c_rounds_over

let repair_failed = function
  | Unsuccessful _ -> true
  | Passed_clean | Repaired -> false

let add c rc =
  c.c_trials <- c.c_trials + 1;
  let escaped, two_pass_failed, iterated_failed =
    match rc.rc_body with
    | Rc_error e ->
        c.c_tool_errors <-
          { te_trial = rc.rc_index; te_seed = rc.rc_seed; te_error = e }
          :: c.c_tool_errors;
        c.c_n_tool_errors <- c.c_n_tool_errors + 1;
        (* a crashed trial observed no failure *)
        (false, false, false)
    | Rc_ok o ->
        if is_clean rc.rc_body then c.c_clean <- c.c_clean + 1;
        c.c_two_pass <- count_class c.c_two_pass o.rc_two_pass;
        c.c_iterated <- count_class c.c_iterated o.rc_iterated;
        add_round c o.rc_rounds;
        let escaped =
          List.fold_left
            (fun escaped f ->
              match f.f_kind with
              | Silent_escape ->
                  c.c_escapes <- f :: c.c_escapes;
                  c.c_n_escapes <- c.c_n_escapes + 1;
                  true
              | Oracle_divergence ->
                  c.c_divergences <- f :: c.c_divergences;
                  c.c_n_divergences <- c.c_n_divergences + 1;
                  escaped)
            false o.rc_failures
        in
        (escaped, repair_failed o.rc_two_pass, repair_failed o.rc_iterated)
  in
  match c.c_weighted with
  | Some acc ->
      let w = rc.rc_weight in
      let fired t cond = if cond then indicator_add t w else t in
      c.c_weighted <-
        Some
          { wn = acc.wn + 1
          ; w_sum = acc.w_sum +. w
          ; w_sum2 = acc.w_sum2 +. (w *. w)
          ; w_escape = fired acc.w_escape escaped
          ; w_repair_fail_two_pass =
              fired acc.w_repair_fail_two_pass two_pass_failed
          ; w_repair_fail_iterated =
              fired acc.w_repair_fail_iterated iterated_failed
          }
  | None -> ()

let result_of_counts config c ~resumed_trials =
  let trials_run = c.c_trials in
  let frac h =
    if trials_run = 0 then 0.0
    else float_of_int (h.passed_clean + h.repaired) /. float_of_int trials_run
  in
  { config
  ; trials_run
  ; truncated = trials_run < config.trials
  ; resumed_trials
  ; two_pass = c.c_two_pass
  ; iterated = c.c_iterated
  ; rounds =
      (List.init dense_rounds (fun r -> (r, c.c_rounds.(r)))
      |> List.filter (fun (_, n) -> n > 0))
      @ c.c_rounds_over
  ; escapes = List.rev c.c_escapes
  ; divergences = List.rev c.c_divergences
  ; tool_errors = List.rev c.c_tool_errors
  ; observed_yield_two_pass = frac c.c_two_pass
  ; observed_yield_iterated = frac c.c_iterated
  ; weighted = c.c_weighted
  }

type progress = {
  p_done : int;
  p_total : int;
  p_escapes : int;
  p_divergences : int;
  p_tool_errors : int;
  p_clean : int;
}

let progress_of_counts ~total c =
  { p_done = c.c_trials
  ; p_total = total
  ; p_escapes = c.c_n_escapes
  ; p_divergences = c.c_n_divergences
  ; p_tool_errors = c.c_n_tool_errors
  ; p_clean = c.c_clean
  }

(* ------------------------------------------------------------------ *)
(* pool items

   A pool item covers [lanes] consecutive trials, each computed by
   [compute_record]; the width trades scheduling overhead against
   chaos, retry and checkpoint granularity and never changes a record.
   The bound, and the default, is the lane width of the bit-parallel
   store ({!Bisram_sram.Word.max_width}). *)

let max_lanes = Bisram_sram.Word.max_width

(* ------------------------------------------------------------------ *)
(* checkpoints *)

type checkpoint = {
  ck_path : string;
  ck_every : int;
  ck_resume : bool;
}

let checkpoint ~path ?(every = 0) ?(resume = false) () =
  if every < 0 then invalid_arg "Campaign.checkpoint: every must be >= 0";
  { ck_path = path; ck_every = every; ck_resume = resume }

let checkpoint_schema = "bisram-campaign-checkpoint/1"

(* a verify-round count the config's flow can produce *)
let rounds_in_range cfg = function
  | Rc_ok o -> o.rc_rounds >= 0 && o.rc_rounds <= cfg.max_rounds
  | Rc_error _ -> true

(* The trial count and wall-clock budget may legitimately differ
   between the interrupted and the resuming invocation (a resume
   completes what a budget or kill cut short); everything that shapes a
   trial's outcome must match exactly. *)
let compat_json cfg = config_json { cfg with trials = 0; max_seconds = None }

let checkpoint_string cfg records =
  J.to_string
    (J.Obj
       [ ("schema", J.String checkpoint_schema)
       ; ("config", compat_json cfg)
       ; ("records", J.List (List.map record_json records))
       ])

(* Atomic temp + rename in the checkpoint's own directory: a kill at
   any instant leaves either the previous complete snapshot or the new
   one, never a torn file.  Write failures degrade to "no new
   checkpoint" — the campaign itself must never die to checkpointing. *)
let write_checkpoint cfg path records =
  match
    Bisram_obs.Atomic_file.write ~prefix:".ckpt-" path
      (checkpoint_string cfg records)
  with
  | () ->
      Obs.incr "campaign.checkpoints";
      Obs.emit ~domain:"campaign" "checkpoint.write"
        [ ("path", J.String path)
        ; ("records", J.Int (List.length records))
        ]
  | exception Sys_error e ->
      Obs.incr "campaign.checkpoint_write_failed";
      Obs.emit ~level:Obs.Warn ~domain:"campaign"
        "checkpoint.write_failed"
        [ ("path", J.String path); ("error", J.String e) ]

(* Load the maximal valid contiguous prefix of a checkpoint.  Any
   defect — unreadable file, parse error, schema or config mismatch, a
   record that is out of place or carries the wrong derived seed —
   degrades to a shorter prefix (or a cold start), never to an error:
   resuming from a damaged checkpoint just recomputes more.  Under a
   proposal, each record's weight is recomputed from its seed. *)
let load_checkpoint cfg draw path =
  let reject () =
    Obs.incr "campaign.checkpoint_rejected";
    [||]
  in
  if not (Sys.file_exists path) then [||]
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> reject ()
    | text -> (
        match J.of_string text with
        | Error _ -> reject ()
        | Ok doc -> (
            let schema_ok =
              match J.member "schema" doc with
              | Some (J.String s) -> String.equal s checkpoint_schema
              | _ -> false
            in
            let config_ok =
              match J.member "config" doc with
              | Some c -> String.equal (J.to_string c) (J.to_string (compat_json cfg))
              | None -> false
            in
            if not (schema_ok && config_ok) then reject ()
            else
              match J.member "records" doc with
              | Some (J.List l) ->
                  (* the records up to the first one out of place *)
                  List.to_seq l
                  |> Seq.mapi (fun i rj ->
                         match record_of_json rj with
                         | Some r
                           when r.rc_index = i
                                && r.rc_seed = trial_seed cfg i
                                && rounds_in_range cfg r.rc_body ->
                             Some
                               { r with
                                 rc_weight = redrawn_weight cfg draw r.rc_seed
                               }
                         | _ -> None)
                  |> Seq.take_while Option.is_some
                  |> Seq.filter_map Fun.id |> Array.of_seq
              | _ -> reject ()))

(* ------------------------------------------------------------------ *)
(* the campaign run *)

(* The events and counters of one record in the fold.  They are emitted
   there, in strict trial order, so the stream is jobs- and
   lanes-invariant, envelope aside. *)
let emit_record rc =
  match rc.rc_body with
  | Rc_ok o when Obs.would_log Obs.Info ->
      Option.iter
        (fun (arows, acols) ->
          Obs.emit ~domain:"campaign" "trial.bira_alloc"
            [ ("trial", J.Int rc.rc_index)
            ; ("seed", J.Int rc.rc_seed)
            ; ("rows", J.List (List.map (fun r -> J.Int r) arows))
            ; ("cols", J.List (List.map (fun c -> J.Int c) acols))
            ])
        o.rc_alloc;
      List.iter
        (fun f ->
          Obs.emit ~domain:"campaign"
            ("trial." ^ List.assoc f.f_kind kind_names)
            [ ("trial", J.Int f.f_trial)
            ; ("seed", J.Int f.f_seed)
            ; ("flow", J.String f.f_flow)
            ; ("detail", J.String f.f_detail)
            ])
        o.rc_failures
  | Rc_ok _ -> ()
  | Rc_error e ->
      Obs.incr "campaign.tool_errors";
      if Obs.would_log Obs.Warn then
        Obs.emit ~level:Obs.Warn ~domain:"campaign" "trial.tool_error"
          [ ("trial", J.Int rc.rc_index)
          ; ("seed", J.Int rc.rc_seed)
          ; ("error", J.String e)
          ]

let run ?now ?(jobs = 1) ?(lanes = max_lanes) ?(should_stop = fun () -> false)
    ?checkpoint ?trial_deadline ?(offset = 0) ?stop_rule ?on_progress cfg =
  if jobs < 1 then invalid_arg "Campaign.run: jobs must be >= 1";
  if lanes < 1 || lanes > max_lanes then
    invalid_arg
      (Printf.sprintf "Campaign.run: lanes must be in 1..%d" max_lanes);
  if offset < 0 then invalid_arg "Campaign.run: offset must be >= 0";
  if offset > 0 && Option.is_some checkpoint then
    invalid_arg
      "Campaign.run: checkpoints cover trials from 0, so they require \
       offset = 0";
  (match stop_rule with
  | Some (every, _) when every < 1 ->
      invalid_arg "Campaign.run: the stopping rule's period must be >= 1"
  | _ -> ());
  let now =
    match now with Some f -> f | None -> Bisram_parallel.Clock.now
  in
  (* the draw is checked and prepared before any trial *)
  let draw = drawer ~who:"Campaign.run" cfg in
  let start = now () in
  let caller = Domain.self () in
  (* set once the stopping rule has ended the campaign *)
  let halted = Atomic.make false in
  let over_budget () =
    (* only the calling domain consults [now]; helper domains see the
       pool's shared stop flag instead, so an impure [now] (e.g. a test
       stub advancing a ref) never races across domains.  The caller's
       [should_stop] (the SIGINT drain flag in the CLI) must be safe to
       poll from any domain — an [Atomic.get] is. *)
    Atomic.get halted || should_stop ()
    || (Domain.self () = caller
       && (match cfg.max_seconds with
          | None -> false
          | Some s -> now () -. start >= s))
  in
  (* resume: the checkpoint contributes a contiguous prefix of already
     computed records, folded before scheduling; the pool only runs the
     trials after it.  Records are deterministic per (config, index), so
     the report cannot depend on which side a trial came from. *)
  let resumed =
    match checkpoint with
    | Some ck when ck.ck_resume -> load_checkpoint cfg draw ck.ck_path
    | _ -> [||]
  in
  let nresumed = Int.min (Array.length resumed) cfg.trials in
  if Obs.enabled () && nresumed > 0 then
    Obs.add "campaign.resumed_trials" nresumed;
  (* once per run, before any trial is scheduled or event emitted *)
  if cfg.trials > nresumed then check_zero_fault_flow cfg;
  (* the one event whose payload names the execution environment
     (jobs/lanes): everything else in the stream is a pure function of
     the work, so jobs-invariance checks drop run.start (see DESIGN.md
     §14) *)
  Obs.emit ~domain:"campaign" "run.start"
    [ ("trials", J.Int cfg.trials)
    ; ("offset", J.Int offset)
    ; ("seed", J.Int cfg.seed)
    ; ("jobs", J.Int jobs)
    ; ("lanes", J.Int lanes)
    ; ("resumed", J.Int nresumed)
    ];
  (* Pool items over the trials after the resumed prefix: one item
     covers [lanes] consecutive trials (full items only — the ragged
     tail degrades to one item per trial, keeping the per-trial
     chaos/retry/checkpoint granularity there).  [offset] shifts the
     whole window: the call computes trials [offset .. offset + trials
     - 1] with their global derived seeds. *)
  let ranges =
    Array.map
      (fun (s, l) -> (s + offset + nresumed, l))
      (Pool.batch_ranges ~items:(cfg.trials - nresumed) ~width:lanes)
  in
  let n_units = Array.length ranges in
  (* A crashed trial becomes its recorded outcome, not a crash of the
     campaign.  Only the exception's rendering enters the record: the
     backtrace depends on build flags and would break cross-jobs
     byte-identity. *)
  let error_record index e =
    let seed = trial_seed cfg index in
    { rc_index = index
    ; rc_seed = seed
    ; rc_body = Rc_error (Printexc.to_string e)
    ; rc_weight = redrawn_weight cfg draw seed
    }
  in
  (* The trial is the unit of failure and of deadline: each arms its own
     cooperative deadline, and a deadline or crash becomes its own tool
     error, whatever else its pool item holds.  A [Pool.Transient] raise
     fails the item, so the pool retries it. *)
  let trial index =
    match
      match trial_deadline with
      | None -> compute_record cfg draw ~index
      | Some s -> Pool.with_deadline s (fun () -> compute_record cfg draw ~index)
    with
    | rc -> rc
    | exception (Pool.Transient _ as e) -> raise e
    | exception Pool.Deadline_exceeded ->
        Obs.incr "pool.deadline_exceeded";
        error_record index Pool.Deadline_exceeded
    | exception e -> error_record index e
  in
  (* Every trial already owns its derived seed, so trials are
     independent and can run on any worker.  Shrinking runs inside the
     worker too (it dominates the cost of a failing trial) and is a
     deterministic function of the trial. *)
  let work unit =
    let start, len = ranges.(unit) in
    (* disarmed chaos neither kills nor fails a job: skip the key *)
    if Chaos.active () then begin
      (match Chaos.kill_at_trial () with
      | Some k when k >= start && k < start + len -> Chaos.kill_now ()
      | _ -> ());
      if
        Chaos.job_fails
          ~key:(Printf.sprintf "%d.%d" start (Pool.current_attempt ()))
      then begin
        (* keyed on (trial, attempt), so the event payload is as
           deterministic as the injection itself *)
        Obs.emit ~level:Obs.Warn ~domain:"chaos" "chaos.inject"
          [ ("trial", J.Int start)
          ; ("attempt", J.Int (Pool.current_attempt ()))
          ];
        raise
          (Pool.Transient
             (Chaos.Injected
                (Printf.sprintf "chaos: injected transient fault (trial %d)"
                   start)))
      end
    end;
    Array.init len (fun l -> trial (start + l))
  in
  (* A finished unit's records, with the pool's telemetry for it: a
     unit that exhausted its retries is one tool error per trial. *)
  let records_of_job unit (r : trial_record array Pool.job_result) =
    if r.Pool.attempts > 1 then Obs.add "pool.retries" (r.Pool.attempts - 1);
    match r.Pool.outcome with
    | Ok arr -> arr
    | Error f ->
        let start, len = ranges.(unit) in
        if f.Pool.f_transient then Obs.incr "pool.retry_exhausted";
        if Obs.would_log Obs.Warn then
          Obs.emit ~level:Obs.Warn ~domain:"pool" "pool.job_failed"
            [ ("trial_start", J.Int start)
            ; ("len", J.Int len)
            ; ("attempts", J.Int r.Pool.attempts)
            ; ("transient", J.Bool f.Pool.f_transient)
            ; ("error", J.String (Printexc.to_string f.Pool.f_exn))
            ];
        Array.init len (fun l -> error_record (start + l) f.Pool.f_exn)
  in
  (* The fold: the one place a trial record is counted, in strict trial
     order.  It adds each record to the report counts (importance
     weights included, so the float sums are jobs- and lanes-invariant),
     emits its events, keeps the checkpoint prefix and consults the
     stopping rule; after each step it snapshots the checkpoint and
     streams progress from the same counts.  The stopping rule sees the
     running result as a fixed run of the trials folded so far; once it
     holds, nothing more is folded and the pool schedules nothing new. *)
  let c = counts cfg in
  let ck_write =
    match checkpoint with
    | Some ck when ck.ck_every > 0 -> Some ck
    | _ -> None
  in
  (* the folded records, newest first, kept only for checkpoints *)
  let ck_records = ref [] in
  let ck_last_written = ref nresumed in
  let fold_record rc =
    if not (Atomic.get halted) then begin
      add c rc;
      emit_record rc;
      if Option.is_some ck_write then ck_records := rc :: !ck_records;
      match stop_rule with
      | Some (every, rule)
        when c.c_trials mod every = 0 || c.c_trials = cfg.trials ->
          let n = { cfg with trials = c.c_trials } in
          if rule (result_of_counts n c ~resumed_trials:nresumed) then
            Atomic.set halted true
      | _ -> ()
    end
  in
  let fold_step () =
    Option.iter
      (fun ck ->
        if c.c_trials - !ck_last_written >= ck.ck_every then begin
          write_checkpoint cfg ck.ck_path (List.rev !ck_records);
          ck_last_written := c.c_trials
        end)
      ck_write;
    Option.iter
      (fun f -> f (progress_of_counts ~total:cfg.trials c))
      on_progress
  in
  Array.iter fold_record (Array.sub resumed 0 nresumed);
  if nresumed > 0 then fold_step ();
  (* The collector: finished units wait here until every unit before
     them has finished, then fold in unit order, on the completing
     worker's domain under one mutex — so successive progress snapshots
     never decrease.  Under a budget, units finished beyond the first
     unfinished one are never folded: a truncated report is exactly the
     trials [offset .. offset + trials_run - 1] at every job count. *)
  let finished = Array.make n_units None in
  let next = ref 0 in
  let collector = Mutex.create () in
  let on_result unit r =
    Mutex.protect collector (fun () ->
        finished.(unit) <- Some r;
        if unit = !next then begin
          while
            !next < n_units
            && Option.is_some finished.(!next)
            && not (Atomic.get halted)
          do
            let r = Option.get finished.(!next) in
            finished.(!next) <- None;
            Array.iter fold_record (records_of_job !next r);
            incr next
          done;
          fold_step ()
        end)
  in
  (* retry observability: the pool calls this on the raising worker
     right before a transient re-attempt *)
  let on_retry =
    if not (Obs.enabled () || Obs.would_log Obs.Warn) then None
    else
      Some
        (fun unit ~attempt e ->
          Obs.incr "pool.retry_attempts";
          if Obs.would_log Obs.Warn then begin
            let start, len = ranges.(unit) in
            Obs.emit ~level:Obs.Warn ~domain:"pool" "pool.retry"
              [ ("trial_start", J.Int start)
              ; ("len", J.Int len)
              ; ("attempt", J.Int attempt)
              ; ("error", J.String (Printexc.to_string e))
              ]
          end)
  in
  ignore
    (Pool.map_result ~jobs ~should_stop:over_budget ?probe:(Obs.pool_probe ())
       ~on_result ?on_retry n_units work);
  (* final snapshot: a graceful drain (budget or SIGINT) leaves the
     freshest contiguous prefix on disk for the next --resume *)
  (match ck_write with
  | Some ck when c.c_trials > !ck_last_written ->
      write_checkpoint cfg ck.ck_path (List.rev !ck_records)
  | _ -> ());
  (* a stopping rule that held ends the campaign as a fixed run *)
  let config =
    if Atomic.get halted then { cfg with trials = c.c_trials } else cfg
  in
  let r = result_of_counts config c ~resumed_trials:nresumed in
  Obs.emit ~domain:"campaign" "run.end"
    [ ("trials_run", J.Int r.trials_run)
    ; ("truncated", J.Bool r.truncated)
    ; ("escapes", J.Int c.c_n_escapes)
    ; ("divergences", J.Int c.c_n_divergences)
    ; ("tool_errors", J.Int c.c_n_tool_errors)
    ];
  r

(* ------------------------------------------------------------------ *)
(* JSON report *)

let to_json r =
  J.Obj
    [ ("schema", J.String "bisram-campaign/2")
    ; ("config", config_json r.config)
    ; ("trials_run", J.Int r.trials_run)
    ; ("truncated", J.Bool r.truncated)
    ; ( "outcomes"
      , J.Obj
          [ ("two_pass", histogram_json r.two_pass)
          ; ("iterated", histogram_json r.iterated)
          ] )
    ; ( "repair_rounds"
      , J.List
          (List.map
             (fun (rounds, count) ->
               J.Obj [ ("rounds", J.Int rounds); ("count", J.Int count) ])
             r.rounds) )
    ; ("escapes", J.List (List.map failure_json r.escapes))
    ; ("divergences", J.List (List.map failure_json r.divergences))
    ; ("tool_errors", J.List (List.map tool_error_json r.tool_errors))
    ; ( "yield"
      , J.Obj
          [ ("observed_two_pass", J.Float r.observed_yield_two_pass)
          ; ("observed_iterated", J.Float r.observed_yield_iterated)
          ; ("analytic", J.Float (analytic_yield r.config))
          ] )
    ]

let json_string r = J.to_string (to_json r)
let pretty_json_string r = J.to_pretty_string (to_json r)

(* ------------------------------------------------------------------ *)
(* human-readable trial report (the --replay output) *)

let pp_anomaly ppf = function
  | Escape { flow; mismatches } ->
      Format.fprintf ppf "ESCAPE (%s flow): %d mismatching read(s)"
        (flow_name flow) (List.length mismatches);
      List.iteri
        (fun i m ->
          if i < 8 then Format.fprintf ppf "@.    %a" Sweep.pp_mismatch m)
        mismatches
  | Divergence { detail } -> Format.fprintf ppf "DIVERGENCE: %s" detail

let pp_trial ppf t =
  Format.fprintf ppf "trial seed %d: %d fault(s)@." t.t_seed
    (List.length t.t_faults);
  List.iter (fun f -> Format.fprintf ppf "  %a@." Fault.pp f) t.t_faults;
  let v = t.t_verdicts in
  Format.fprintf ppf "controller: %a (%d cycles)@." Repair.pp_outcome
    v.controller v.cycles;
  Format.fprintf ppf "reference : %a@." Repair.pp_outcome v.reference;
  Format.fprintf ppf "iterated  : %a (%d round(s))@." Repair.pp_outcome
    v.iterated v.rounds;
  match t.t_anomalies with
  | [] -> Format.fprintf ppf "no escapes, no divergences@."
  | l -> List.iter (fun a -> Format.fprintf ppf "%a@." pp_anomaly a) l
