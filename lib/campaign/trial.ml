(* The trial flow: a campaign's configuration, its seeds and prepared
   fault draw, the two flow runs of each repair architecture, and the
   shrink predicates that re-run them. *)

module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module March = Bisram_bist.March
module Datagen = Bisram_bist.Datagen
module Fault = Bisram_faults.Fault
module Injection = Bisram_faults.Injection
module Repair = Bisram_bisr.Repair
module Tlb = Bisram_bisr.Tlb
module Bira = Bisram_bira.Bira
module Proposal = Bisram_faults.Proposal
module Obs = Bisram_obs.Obs
module Pool = Bisram_parallel.Pool

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
   draw).  A time budget is finite and positive: a NaN one never stops
   the run, and an infinite one is not JSON. *)
let bad_value ~who what v =
  invalid_arg (Printf.sprintf "%s: %s (got %g)" who what v)

let check_mean ~who m =
  if not (Float.is_finite m && m >= 0.0) then
    bad_value ~who "mean must be finite and >= 0" m

let check_mode ~who = function
  | Uniform n -> if n < 0 then bad_value ~who "faults must be >= 0" (float_of_int n)
  | Poisson m -> check_mean ~who m
  | Clustered { mean; alpha } ->
      check_mean ~who mean;
      if not (Float.is_finite alpha && alpha > 0.0) then
        bad_value ~who "alpha must be finite and > 0" alpha

let check_max_seconds ~who = function
  | Some s when not (Float.is_finite s && s > 0.0) ->
      bad_value ~who "max_seconds must be finite and > 0" s
  | _ -> ()

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
  check_max_seconds ~who:"Campaign.make_config" max_seconds;
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
  check_max_seconds ~who cfg.max_seconds;
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

(* What ran a side: the microprogrammed controller, a flow, or a flow
   whose extraction agreed bit by bit on every failure (its own check). *)
type run = Controller of int | Flow | Self_checked

(* One side's result: [s_rounds] are the verify rounds (1 for a
   single-verify flow), [s_model] the armed model an escape sweep
   reads. *)
type side = {
  s_outcome : Repair.outcome;
  s_alloc : alloc;
  s_rounds : int;
  s_run : run;
  s_model : Model.t;
}

(* A trial is two flow runs — detect, allocate, arm, verify — each on
   its own freshly armed model (a run mutates array contents and
   remap).  [under_test] is the flow the differential oracle holds to
   account and the two-pass escape sweep reads; [check] returns the
   oracle side it is held against and the side the iterated escape
   sweep reads, both on the checking run's one model. *)
type arch = {
  under_test : Fault.t list -> side;
  check : Fault.t list -> side * side;  (** (oracle, iterated-swept) *)
  check_span : string;
  iterated_by_check : bool;
      (** the iterated verdict and rounds are the checking run's;
          otherwise the run under test's *)
}

(* Row-TLB: the paper's microprogrammed controller under test, checked
   by one engine run of the iterated 2k-pass flow, which also yields
   the functional two-pass oracle (its verdict and TLB rows are read
   off verify round 1); the oracle compares the mapped TLB rows.  BIRA:
   there is no controller for the 2D flow, so the packed-word
   comparator analog ([fast:true] fault extraction) is under test
   against the bit-by-bit reference; the flow iterates (spare burning)
   on both sides, so the reference also carries the iterated escape
   sweep, and the analog's verdict is reported for both flows.  The
   analog checks each failure bit by bit; only a disagreement runs the
   reference, on a model of its own. *)
let build_arch cfg =
  let bgs = backgrounds cfg and march = cfg.march in
  let side ?(rounds = 1) s_run s_outcome s_alloc s_model =
    { s_outcome; s_alloc; s_rounds = rounds; s_run; s_model }
  in
  match cfg.repair with
  | Row_tlb ->
      let controller faults =
        let m = model_with cfg faults in
        let o, report, tlb = Repair.run m march ~backgrounds:bgs in
        side (Controller report.Bisram_bist.Controller.cycles) o
          (Tlb_rows (Tlb.mapped_rows tlb))
          m
      in
      let engine faults =
        let m = model_with cfg faults in
        let f =
          Repair.run_flows ~max_rounds:cfg.max_rounds m march ~backgrounds:bgs
        in
        let it = f.Repair.iterated in
        ( side Flow f.Repair.reference (Tlb_rows f.Repair.reference_rows) m
        , side Flow it.Repair.i_outcome
            (Tlb_rows (Tlb.mapped_rows it.Repair.i_tlb))
            ~rounds:it.Repair.i_rounds m )
      in
      { under_test = controller
      ; check = engine
      ; check_span = "repair"
      ; iterated_by_check = true
      }
  | Bira strat ->
      let bira ~fast faults =
        let m = model_with cfg faults and max_rounds = cfg.max_rounds in
        let r, checked =
          if fast then
            Bira.run_checked ~max_rounds strat m march ~backgrounds:bgs
          else
            (Bira.run ~max_rounds ~fast strat m march ~backgrounds:bgs, false)
        in
        side (if checked then Self_checked else Flow) r.Bira.b_outcome
          (Lines r.Bira.b_alloc) ~rounds:r.Bira.b_rounds m
      in
      { under_test = bira ~fast:true
      ; check =
          (fun faults ->
            let r = bira ~fast:false faults in
            (r, r))
      ; check_span = "oracle"
      ; iterated_by_check = false
      }

(* The last configuration's architecture, shared by every domain: a
   campaign runs every trial, and every shrink step, with one
   configuration, and an architecture only closes over it. *)
let last_arch : (config * arch) option Atomic.t = Atomic.make None

let arch cfg =
  match Atomic.get last_arch with
  | Some (c, a) when c == cfg -> a
  | _ ->
      let a = build_arch cfg in
      Atomic.set last_arch (Some (cfg, a));
      a

(* The differential oracle on an under-test/oracle pair: outcome first,
   then the allocation both passing sides armed. *)
let divergence c r =
  let diverged detail = Some (Divergence { detail }) in
  let what, tested =
    match c.s_alloc with
    | Tlb_rows _ -> ("TLB", "controller")
    | Lines _ -> ("BIRA alloc", "fast")
  in
  if c.s_outcome <> r.s_outcome then
    diverged
      (Format.asprintf "outcome: %s %a, reference %a" tested Repair.pp_outcome
         c.s_outcome Repair.pp_outcome r.s_outcome)
  else if success c.s_outcome && c.s_alloc <> r.s_alloc then
    diverged
      (Printf.sprintf "%s: %s %s, reference %s" what tested
         (pp_alloc c.s_alloc) (pp_alloc r.s_alloc))
  else None

(* a silent escape: the array disagrees with a passing verdict *)
let escaped s = success s.s_outcome && not (Sweep.clean s.s_model)

let self_checked s =
  match s.s_run with Self_checked -> true | Controller _ | Flow -> false

let run_faults cfg faults =
  let a = arch cfg in
  let timed span run =
    let s = Obs.span ~cat:"campaign" span (fun () -> run faults) in
    (* between runs: the cooperative per-trial deadline (a no-op unless
       [run] armed one) *)
    Pool.check_deadline ();
    s
  in
  let c = timed "march" a.under_test in
  let r, swept =
    timed a.check_span (if self_checked c then fun _ -> (c, c) else a.check)
  in
  let it = if a.iterated_by_check then swept else c in
  let divergences = Option.to_list (divergence c r) in
  let sweep s =
    if not (success s.s_outcome) then []
    else Obs.span ~cat:"campaign" "escape-sweep" (fun () -> Sweep.run s.s_model)
  in
  (* a model is swept once: a second sweep would read another residue *)
  let two_pass = sweep c in
  let iterated = if swept == c then two_pass else sweep swept in
  let escapes =
    List.filter_map
      (function
        | _, [] -> None
        | flow, mismatches -> Some (Escape { flow; mismatches }))
      [ (Two_pass, two_pass); (Iterated, iterated) ]
  in
  if Obs.enabled () then begin
    (* each distinct model once: the check's sides share one *)
    flush_model_stats c.s_model;
    if r.s_model != c.s_model then flush_model_stats r.s_model;
    (match c.s_run with
    | Controller n -> Obs.observe "campaign.cycles" n
    | Flow | Self_checked -> ());
    Obs.observe "campaign.repair_rounds" it.s_rounds
  end;
  ( { controller = c.s_outcome
    ; reference = r.s_outcome
    ; iterated = it.s_outcome
    ; rounds = it.s_rounds
    ; cycles = (match c.s_run with Controller n -> n | Flow | Self_checked -> 0)
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

(* ------------------------------------------------------------------ *)
(* shrinking *)

(* The delta-debugging predicate re-runs only the runs the anomaly
   needs: the swept run for an escape, both for a divergence.  The
   trial itself established the anomaly on [faults], so the shrinker
   does not re-check the full list.  With [~fault_free_clean] (the
   fault-free flow is known to be clean, as [check_zero_fault_flow]
   establishes for every campaign) the empty list is answered without
   simulating it: no anomaly there.  A [memo], given when one
   self-checked run carried both of a trial's flows, keeps the two-pass
   escape's reproducer if every candidate's run was self-checked too:
   each iterated answer was then the two-pass one, so the iterated
   shrink would return the same reproducer. *)
let shrink_with cfg ?memo ~fault_free_clean anomaly faults =
  match (anomaly, memo) with
  | _ when not cfg.shrink -> faults
  | Escape { flow = Iterated; _ }, Some { contents = Some shrunk } -> shrunk
  | Escape { flow = Two_pass; _ }, Some memo ->
      let a = arch cfg and checked = ref true in
      let keep = function
        | [] when fault_free_clean -> false
        | fs ->
            let c = a.under_test fs in
            checked := !checked && self_checked c;
            escaped c
      in
      let shrunk = Shrink.minimize_failing ~keep faults in
      if !checked then memo := Some shrunk;
      shrunk
  | _ ->
      let a = arch cfg in
      let keep =
        match anomaly with
        | Escape { flow = Two_pass; _ } -> fun fs -> escaped (a.under_test fs)
        | Escape { flow = Iterated; _ } -> fun fs -> escaped (snd (a.check fs))
        | Divergence _ ->
            fun fs ->
              let c = a.under_test fs in
              let r = if self_checked c then c else fst (a.check fs) in
              Option.is_some (divergence c r)
      in
      let keep = function [] when fault_free_clean -> false | fs -> keep fs in
      Shrink.minimize_failing ~keep faults

let shrink_anomaly cfg anomaly faults =
  shrink_with cfg ~fault_free_clean:false anomaly faults
