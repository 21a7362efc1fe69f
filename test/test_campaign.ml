(* Tests for the Monte Carlo campaign harness: JSON report module,
   greedy shrinking, escape sweep, determinism, replay, budgets and the
   differential-oracle / no-silent-escape properties. *)

module C = Bisram_campaign.Campaign
module Sweep = Bisram_campaign.Sweep
module Shrink = Bisram_campaign.Shrink
module J = Bisram_obs.Json
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module F = Bisram_faults.Fault
module I = Bisram_faults.Injection
module Repair = Bisram_bisr.Repair
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_rendering () =
  let j =
    J.Obj
      [ ("a", J.Int 3)
      ; ("b", J.Float 0.5)
      ; ("c", J.Float 2.0)
      ; ("s", J.String "x\"y\n")
      ; ("l", J.List [ J.Bool true; J.Null ])
      ]
  in
  Alcotest.(check string)
    "compact deterministic"
    "{\"a\":3,\"b\":0.5,\"c\":2.0,\"s\":\"x\\\"y\\n\",\"l\":[true,null]}"
    (J.to_string j)

(* ------------------------------------------------------------------ *)
(* shrinker *)

let test_shrink_single_culprit () =
  let items = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check (list int))
    "isolates the culprit" [ 7 ]
    (Shrink.minimize ~keep:(fun l -> List.mem 7 l) items)

let test_shrink_pair () =
  let items = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  Alcotest.(check (list int))
    "keeps interacting pair in order" [ 3; 9 ]
    (Shrink.minimize ~keep:(fun l -> List.mem 3 l && List.mem 9 l) items)

let test_shrink_size_threshold () =
  let items = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let r = Shrink.minimize ~keep:(fun l -> List.length l >= 3) items in
  Alcotest.(check int) "1-minimal size" 3 (List.length r)

let test_shrink_not_failing () =
  Alcotest.(check (list int))
    "non-failing input unchanged" [ 1; 2 ]
    (Shrink.minimize ~keep:(fun _ -> false) [ 1; 2 ])

(* [minimize_failing], for a caller that already established [keep
   items], returns the same list with exactly one [keep] call fewer. *)
let prop_shrink_minimal =
  QCheck.Test.make ~name:"shrunk list is 1-minimal" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 12) (int_range 0 30))
    (fun items ->
      let keep l = List.exists (fun x -> x mod 3 = 0) l in
      QCheck.assume (keep items);
      let calls = ref 0 in
      let counted l = incr calls; keep l in
      let r = Shrink.minimize ~keep:counted items in
      let full = !calls in
      calls := 0;
      let r' = Shrink.minimize_failing ~keep:counted items in
      keep r
      && List.for_all
           (fun x -> not (keep (List.filter (fun y -> y <> x) r)))
           r
      && r' = r
      && !calls = full - 1)

(* ------------------------------------------------------------------ *)
(* sweep *)

let test_sweep_clean_ram () =
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let m = Model.create org in
  Alcotest.(check (list int)) "no mismatch on a clean RAM" []
    (List.map (fun mm -> mm.Sweep.addr) (Sweep.run m))

let test_sweep_sees_unrepaired_fault () =
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let m = Model.create org in
  Model.set_faults m [ F.Stuck_at ({ F.row = 3; col = 9 }, true) ];
  Alcotest.(check bool) "stuck-at visible" false (Sweep.clean m)

let test_sweep_blind_after_remap () =
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let m = Model.create org in
  Model.set_faults m [ F.Stuck_at ({ F.row = 3; col = 9 }, true) ];
  let outcome, _, _ =
    Repair.run m Alg.ifa_9 ~backgrounds:(Datagen.required_backgrounds ~bpw:8)
  in
  (match outcome with
  | Repair.Repaired _ -> ()
  | o -> Alcotest.failf "expected repair, got %a" Repair.pp_outcome o);
  Alcotest.(check bool) "repaired fault invisible" true (Sweep.clean m)

let test_sweep_row_out_of_range () =
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let m = Model.create org in
  Model.set_remap m (Some (fun _ -> 1000));
  Alcotest.(check bool) "raises" true
    (match Sweep.run m with _ -> false | exception Invalid_argument _ -> true)

(* The sweep runs its elements in model spans; with the fast path off
   every op is a per-op access.  Both must see the same mismatches, in
   the same order, leave the same array behind and count the same word
   ops, for [run] and for [clean].  The arrays carry default-mix faults
   over every row, spares included, a coupling across the
   regular/spare boundary, and stuck-open cells to expose the residue;
   a row TLB sends random rows to spares, and on a two-spare-column
   array half the cases arm a 2D BIRA column map. *)
let prop_sweep_spans_equal_per_op =
  QCheck.Test.make ~name:"sweep spans = per-op sweep" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 8))
    (fun (seed, n) ->
      let module Tlb = Bisram_bisr.Tlb in
      let rng = Random.State.make [| 0x5EE9; seed |] in
      let int k = Random.State.int rng k and flip () = Random.State.bool rng in
      let org =
        if flip () then Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ()
        else Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ~spare_cols:2 ()
      in
      let rows = Org.total_rows org and cols = Org.cols org in
      let regular = Org.rows org and tcols = Org.total_cols org in
      let cell row col = { F.row; col } in
      let faults =
        I.inject rng ~rows ~cols ~mix:I.default_mix ~n
        @ (if flip () then
             let reg = cell (int regular) (int cols)
             and spr = cell (regular + int org.Org.spares) (int cols) in
             let aggressor, victim = if flip () then (reg, spr) else (spr, reg) in
             [ (if flip () then F.Coupling_inversion { aggressor; victim }
                else
                  F.State_coupling
                    { aggressor; when_state = flip (); victim; reads_as = flip () })
             ]
           else [])
        @ List.init (int 3) (fun _ -> F.Stuck_open (cell (int rows) (int cols)))
      in
      let tlb = Tlb.create ~spares:org.Org.spares ~regular_rows:regular in
      List.iter
        (fun _ -> ignore (Tlb.record tlb ~row:(int regular)))
        (List.init (int (org.Org.spares + 1)) Fun.id);
      let col_map =
        if tcols = cols || flip () then None
        else
          let pairs =
            List.init (1 + int 2) (fun k -> (int cols, cols + (k land 1)))
          in
          Some (fun c -> match List.assoc_opt c pairs with Some q -> q | None -> c)
      in
      let build fast =
        let m = Model.create org in
        Model.set_fast_path m fast;
        Model.set_faults m faults;
        Model.set_remap m (Some (fun row -> Tlb.remap tlb ~row));
        Model.set_col_remap m col_map;
        m
      in
      let observe m =
        Model.set_col_remap m None;
        ( Model.reads m
        , Model.writes m
        , List.init rows (fun row ->
              List.init org.Org.bpc (fun col ->
                  Model.read_row_word m ~row ~col)) )
      in
      let swept fast =
        let m = build fast in
        let r = Sweep.run m in
        (r, observe m)
      in
      let cleaned fast =
        let m = build fast in
        let c = Sweep.clean m in
        (c, observe m)
      in
      let ((r, _) as on) = swept true in
      on = swept false
      && cleaned true = cleaned false
      && fst (cleaned true) = (r = []))

(* ------------------------------------------------------------------ *)
(* campaign determinism and replay *)

let test_campaign_deterministic () =
  let cfg = C.make_config ~trials:60 ~seed:11 () in
  let a = C.json_string (C.run cfg) in
  let b = C.json_string (C.run cfg) in
  Alcotest.(check string) "byte-identical reports" a b

let test_campaign_seed_changes_report () =
  let r1 = C.json_string (C.run (C.make_config ~trials:20 ~seed:1 ())) in
  let r2 = C.json_string (C.run (C.make_config ~trials:20 ~seed:2 ())) in
  Alcotest.(check bool) "different seeds differ" true (r1 <> r2)

let known_escape_config ?(trials = 30) () =
  C.make_config ~march:Alg.mats_plus ~mix:I.retention_only ~mode:(C.Uniform 3)
    ~trials ~seed:5 ()

let test_known_escape_detected_and_shrunk () =
  let cfg = known_escape_config () in
  let r = C.run cfg in
  Alcotest.(check bool) "escapes found" true (r.C.escapes <> []);
  List.iter
    (fun f ->
      let n = List.length f.C.f_shrunk in
      if n < 1 || n > 3 then
        Alcotest.failf "shrunk reproducer has %d faults" n;
      (* a retention-only escape shrinks to a single decaying cell *)
      Alcotest.(check int) "minimal reproducer" 1 n)
    r.C.escapes

(* The reported reproducers are what [Shrink.minimize] gives with the
   trial flow itself as the predicate (the escape of the same flow
   label is still reported), and the campaign's shrinker asks its own
   predicate one question fewer per shrink. *)
let test_known_escape_shrunk_like_minimize () =
  let cfg = known_escape_config () in
  let r = C.run cfg in
  Alcotest.(check bool) "escapes found" true (r.C.escapes <> []);
  List.iter
    (fun f ->
      let calls = ref 0 in
      let keep fs =
        incr calls;
        List.exists
          (function
            | C.Escape { flow; _ } -> C.flow_name flow = f.C.f_flow
            | C.Divergence _ -> false)
          (snd (C.run_faults cfg fs))
      in
      let shrunk = Shrink.minimize ~keep f.C.f_faults in
      let full = !calls in
      calls := 0;
      let shrunk' = Shrink.minimize_failing ~keep f.C.f_faults in
      Alcotest.(check int) "one keep call fewer" (full - 1) !calls;
      Alcotest.(check (list string)) "same reproducer"
        (List.map (Format.asprintf "%a" F.pp) shrunk)
        (List.map (Format.asprintf "%a" F.pp) shrunk');
      Alcotest.(check (list string)) "f_shrunk"
        (List.map (Format.asprintf "%a" F.pp) shrunk)
        (List.map (Format.asprintf "%a" F.pp) f.C.f_shrunk))
    r.C.escapes

let test_known_escape_replayable () =
  let cfg = known_escape_config () in
  let r = C.run cfg in
  let f = List.hd r.C.escapes in
  let t = C.replay cfg ~seed:f.C.f_seed in
  Alcotest.(check bool) "replay reproduces the escape" true
    (List.exists
       (function C.Escape _ -> true | C.Divergence _ -> false)
       t.C.t_anomalies);
  Alcotest.(check bool) "replay regenerates the fault set" true
    (t.C.t_faults = f.C.f_faults)

(* Trial 257 of the seed-103 Poisson mean-3 campaign
   (`campaign --mode poisson --mean 3 --replay 540766677`): the only
   known input that reaches the oracle's divergence detail and the
   divergence shrink predicate.  This pins the current disagreement
   between the microprogrammed controller and the functional reference
   (the controller repairs, the reference fails its second pass); if a
   fix removes the disagreement, this test is re-goldened with a note
   in the change log. *)
let divergence_replay_trace =
  {|trial seed 540766677: 7 fault(s)
  TF(r2c11,down)
  SOF(r4c16)
  SAF(r19c19=false)
  CFst(r15c7=false->r16c7~true)
  DRF(r15c7->true)
  SAF(r0c15=false)
  SOF(r19c20)
controller: repaired rows [0,2,15] (7783 cycles)
reference : repair unsuccessful: fault in second pass
iterated  : repair unsuccessful: too many faulty rows (2 round(s))
DIVERGENCE: outcome: controller repaired rows [0,2,15], reference repair unsuccessful: fault in second pass
ESCAPE (two-pass flow): 6 mismatching read(s)
    addr 16 [checker/read-up]: expected 10101010, got 10100010
    addr 16 [checker/read-down]: expected 10101010, got 10100010
    addr 16 [checker/retention]: expected 10101010, got 10100010
    addr 16 [checker-inv/read-up]: expected 01010101, got 01011101
    addr 16 [checker-inv/read-down]: expected 01010101, got 01011101
    addr 16 [checker-inv/retention]: expected 01010101, got 01011101
|}

let test_divergence_replay_pinned () =
  let cfg = C.make_config ~mode:(C.Poisson 3.0) () in
  let t = C.replay cfg ~seed:540766677 in
  Alcotest.(check string) "replay trace" divergence_replay_trace
    (Format.asprintf "%a" C.pp_trial t);
  let shrunk =
    List.map
      (fun a ->
        List.map (Format.asprintf "%a" F.pp)
          (C.shrink_anomaly cfg a t.C.t_faults))
      t.C.t_anomalies
  in
  Alcotest.(check (list (list string)))
    "shrunk reproducers (divergence, two-pass escape)"
    [ [ "CFst(r15c7=false->r16c7~true)"; "DRF(r15c7->true)" ]
    ; [ "SOF(r4c16)" ]
    ]
    shrunk

let test_clean_mix_has_no_anomalies () =
  let cfg =
    C.make_config ~mix:I.stuck_at_only ~mode:(C.Uniform 3) ~trials:60 ~seed:3
      ()
  in
  let r = C.run cfg in
  Alcotest.(check int) "no escapes" 0 (List.length r.C.escapes);
  Alcotest.(check int) "no divergences" 0 (List.length r.C.divergences);
  Alcotest.(check int) "all trials accounted"
    r.C.trials_run
    (r.C.two_pass.C.passed_clean + r.C.two_pass.C.repaired
    + r.C.two_pass.C.too_many_faulty_rows
    + r.C.two_pass.C.fault_in_second_pass)

let test_budget_truncates () =
  (* a fake clock advancing 1s per reading: the first budget check
     already fires, so zero trials run and the report says truncated *)
  let t = ref 0.0 in
  let now () =
    t := !t +. 1.0;
    !t
  in
  let cfg = C.make_config ~trials:50 ~seed:1 ~max_seconds:0.5 () in
  let r = C.run ~now cfg in
  Alcotest.(check bool) "truncated" true r.C.truncated;
  Alcotest.(check int) "no trials" 0 r.C.trials_run;
  Alcotest.(check bool) "report still renders" true
    (String.length (C.json_string r) > 0)

let test_budget_partial () =
  (* 0.1s per check, 0.35s budget: exactly three trials fit *)
  let t = ref 0.0 in
  let now () =
    t := !t +. 0.1;
    !t
  in
  let cfg = C.make_config ~trials:50 ~seed:1 ~max_seconds:0.35 () in
  let r = C.run ~now cfg in
  Alcotest.(check bool) "truncated" true r.C.truncated;
  Alcotest.(check int) "three trials" 3 r.C.trials_run

let test_budget_now_caller_only () =
  (* the mli promises [now] is never called from a worker domain, so an
     impure stub (like the refs above) cannot race when jobs > 1 *)
  let caller = Domain.self () in
  let foreign = Atomic.make false in
  let now () =
    if Domain.self () <> caller then Atomic.set foreign true;
    0.0
  in
  let cfg = C.make_config ~trials:30 ~seed:7 ~max_seconds:1000.0 () in
  ignore (C.run ~now ~jobs:4 cfg);
  Alcotest.(check bool) "now confined to calling domain" false
    (Atomic.get foreign)

let test_budget_parallel_prefix_semantics () =
  (* a truncated parallel report must aggregate exactly the contiguous
     prefix [0 .. trials_run - 1]: whatever the cutoff landed on, the
     counts equal an unbudgeted sequential run over that many trials *)
  (* only the caller polls [now] (0.02s per poll, 0.12s budget), so it
     stops after a handful of its own claims; 2000 one-trial pool items
     guarantee the helpers cannot drain the queue first, even while the
     caller's domain waits for a core, so the caller's tripped claim is
     a hole and the run is always truncated *)
  let t = ref 0.0 in
  let now () =
    t := !t +. 0.02;
    !t
  in
  let cfg =
    { (known_escape_config ~trials:2000 ()) with C.max_seconds = Some 0.12 }
  in
  let r = C.run ~now ~jobs:4 ~lanes:1 cfg in
  Alcotest.(check bool) "truncated" true r.C.truncated;
  let prefix =
    C.run { cfg with C.trials = r.C.trials_run; C.max_seconds = None }
  in
  Alcotest.(check bool) "counts equal the sequential prefix run" true
    (r.C.two_pass = prefix.C.two_pass
    && r.C.iterated = prefix.C.iterated
    && r.C.rounds = prefix.C.rounds
    && r.C.escapes = prefix.C.escapes
    && r.C.divergences = prefix.C.divergences)

let test_unbudgeted_runs_all () =
  let cfg = C.make_config ~trials:25 ~seed:9 () in
  let r = C.run cfg in
  Alcotest.(check bool) "not truncated" false r.C.truncated;
  Alcotest.(check int) "all trials" 25 r.C.trials_run

let test_jobs_byte_identical () =
  (* ISSUE acceptance gate: the parallel report is byte-identical to the
     sequential one, both on a clean run and on one with escapes (the
     escape/divergence lists exercise the merge's index ordering) *)
  let check_cfg name cfg =
    let seq = C.json_string (C.run ~jobs:1 cfg) in
    let par = C.json_string (C.run ~jobs:4 cfg) in
    Alcotest.(check string) name seq par
  in
  check_cfg "clean mix, jobs=4 = jobs=1"
    (C.make_config ~trials:40 ~seed:11 ~mode:(C.Uniform 2) ());
  check_cfg "escaping mix, jobs=4 = jobs=1" (known_escape_config ~trials:20 ())

let test_jobs_validation () =
  let cfg = C.make_config ~trials:5 ~seed:1 () in
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Campaign.run: jobs must be >= 1") (fun () ->
      ignore (C.run ~jobs:0 cfg))


(* Pre-estimator golden report, captured from the tool before the
   rare-event estimation layer landed: with no proposal armed the /2
   report must stay byte-identical forever (replay/CI contracts hang
   off these bytes).  Any diff here is a schema break, not a tweak. *)
let golden_v2_report = {golden|{
  "schema": "bisram-campaign/2",
  "config": {
    "org": {
      "words": 64,
      "bpw": 8,
      "bpc": 4,
      "spares": 4
    },
    "march": "IFA-9",
    "mix": {
      "stuck_at": 1.0,
      "transition": 0.0,
      "stuck_open": 0.0,
      "coupling_inversion": 0.0,
      "coupling_idempotent": 0.0,
      "state_coupling": 0.0,
      "data_retention": 0.0
    },
    "mode": {
      "kind": "uniform",
      "faults": 2
    },
    "trials": 8,
    "seed": 11,
    "max_seconds": null,
    "shrink": true,
    "max_rounds": 8
  },
  "trials_run": 8,
  "truncated": false,
  "outcomes": {
    "two_pass": {
      "passed_clean": 2,
      "repaired": 5,
      "too_many_faulty_rows": 0,
      "fault_in_second_pass": 1
    },
    "iterated": {
      "passed_clean": 2,
      "repaired": 6,
      "too_many_faulty_rows": 0,
      "fault_in_second_pass": 0
    }
  },
  "repair_rounds": [
    {
      "rounds": 1,
      "count": 7
    },
    {
      "rounds": 2,
      "count": 1
    }
  ],
  "escapes": [],
  "divergences": [],
  "tool_errors": [],
  "yield": {
    "observed_two_pass": 0.875,
    "observed_iterated": 1.0,
    "analytic": 0.64
  }
}
|golden}

let test_golden_v2_bytes_frozen () =
  let cfg =
    C.make_config ~mix:I.stuck_at_only ~mode:(C.Uniform 2) ~trials:8 ~seed:11
      ()
  in
  Alcotest.(check string) "estimation-off report bytes are frozen"
    golden_v2_report
    (C.pretty_json_string (C.run cfg))

(* The row-TLB flow at Poisson mean 3 (the repair-limited reference
   run): dense in stuck-open faults, spare remaps and shrinking, so it
   pins the controller table, the packed sense residue and the TLB
   lookup against report bytes.  The golden file is the CLI output of
   `campaign --trials 200 --seed 7 --mode poisson --mean 3 --jobs 1`
   captured before those three kernels were rewritten. *)
let test_golden_row_tlb_p3 () =
  let cfg = C.make_config ~mode:(C.Poisson 3.0) ~trials:200 ~seed:7 () in
  Alcotest.(check string) "poisson-3 row-tlb report bytes"
    (Fixture.read "golden_row_tlb_p3.json")
    (C.pretty_json_string (C.run ~jobs:1 cfg))

(* The same repair-limited load under March C- (no retention wait, so
   every element is a clean-address loop of the controller).  The
   golden file is the CLI output of `campaign --trials 60 --seed 7
   --mode poisson --mean 3 --march "March C-"` captured before the
   clean-row march spans went in. *)
let test_golden_marchc_p3 () =
  let cfg =
    C.make_config ~march:Alg.march_c_minus
      ~mode:(C.Poisson 3.0) ~trials:60 ~seed:7 ()
  in
  Alcotest.(check string) "poisson-3 March C- report bytes"
    (Fixture.read "golden_marchc_p3.json")
    (C.pretty_json_string (C.run ~jobs:1 cfg))

let test_rounds_histogram_totals () =
  let cfg = C.make_config ~trials:40 ~seed:13 ~mode:(C.Uniform 4) () in
  let r = C.run cfg in
  Alcotest.(check int) "rounds cover every trial" r.C.trials_run
    (List.fold_left (fun a (_, c) -> a + c) 0 r.C.rounds)

let test_yield_brackets_analytic () =
  (* The analytic strict notion (no fault in ANY spare) is a lower
     bound on the simulated two-pass flow, which only fails on faults
     in spares it actually deploys; the iterated flow repairs faulty
     spares and dominates both. *)
  let cfg =
    C.make_config ~mix:I.stuck_at_only ~mode:(C.Uniform 6) ~trials:300 ~seed:21
      ()
  in
  let r = C.run cfg in
  let analytic = C.analytic_yield r.C.config in
  if r.C.observed_yield_two_pass < analytic -. 0.06 then
    Alcotest.failf "two-pass %.3f below strict analytic bound %.3f"
      r.C.observed_yield_two_pass analytic;
  Alcotest.(check bool) "iterated dominates two-pass" true
    (r.C.observed_yield_iterated >= r.C.observed_yield_two_pass)

(* ------------------------------------------------------------------ *)
(* resilience: checkpoints, resume, tool errors, chaos, drain *)

module Chaos = Bisram_chaos.Chaos
module Pool = Bisram_parallel.Pool

(* a valid deadline span *)
let deadline s = Option.get (Pool.deadline s)

let with_temp_ckpt f =
  let path = Filename.temp_file "bisram-ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let prop_kill_resume_byte_identical =
  (* the ISSUE acceptance gate, in-process: interrupt the campaign after
     a random number of trials (exactly what a kill after the last
     snapshot leaves on disk), resume to completion, and require the
     report byte-identical to an uninterrupted run — at jobs 1 and 4 *)
  QCheck.Test.make ~name:"kill at random trial + resume is byte-identical"
    ~count:10
    QCheck.(triple (int_range 0 24) (int_range 1 6) bool)
    (fun (k, every, par) ->
      let jobs = if par then 4 else 1 in
      let cfg = C.make_config ~trials:25 ~seed:17 () in
      let full = C.json_string (C.run ~jobs cfg) in
      with_temp_ckpt (fun path ->
          ignore
            (C.run ~jobs
               ~checkpoint:(C.checkpoint ~path ~every ())
               { cfg with C.trials = k });
          let r =
            C.run ~jobs
              ~checkpoint:(C.checkpoint ~path ~every ~resume:true ())
              cfg
          in
          r.C.resumed_trials = k && C.json_string r = full))

let test_checkpoint_config_mismatch_rejected () =
  with_temp_ckpt (fun path ->
      let cfg1 = C.make_config ~trials:8 ~seed:1 () in
      ignore (C.run ~checkpoint:(C.checkpoint ~path ~every:2 ()) cfg1);
      (* a different campaign seed changes every trial: the snapshot
         must be rejected, not blended in *)
      let cfg2 = C.make_config ~trials:8 ~seed:2 () in
      let cold = C.json_string (C.run cfg2) in
      let r =
        C.run ~checkpoint:(C.checkpoint ~path ~every:2 ~resume:true ()) cfg2
      in
      Alcotest.(check int) "nothing resumed" 0 r.C.resumed_trials;
      Alcotest.(check string) "cold-start report" cold (C.json_string r))

let test_checkpoint_corruption_degrades () =
  with_temp_ckpt (fun path ->
      let cfg = C.make_config ~trials:10 ~seed:23 () in
      let full = C.json_string (C.run cfg) in
      ignore
        (C.run
           ~checkpoint:(C.checkpoint ~path ~every:2 ())
           { cfg with C.trials = 6 });
      (* truncate the snapshot mid-record: the resume must fall back to
         recomputation, never crash or mis-aggregate *)
      let s = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub s 0 (String.length s / 2)));
      let r =
        C.run ~checkpoint:(C.checkpoint ~path ~every:2 ~resume:true ()) cfg
      in
      Alcotest.(check string) "byte-identical despite corrupt checkpoint" full
        (C.json_string r))

(* A parsed record whose verify rounds the config's flow cannot produce
   (beyond [max_rounds]) ends the resumed prefix there, like any other
   damaged record, instead of indexing past the rounds table. *)
let test_checkpoint_rounds_out_of_range () =
  with_temp_ckpt (fun path ->
      let cfg = C.make_config ~trials:10 ~seed:23 () in
      let full = C.json_string (C.run cfg) in
      ignore
        (C.run
           ~checkpoint:(C.checkpoint ~path ~every:2 ())
           { cfg with C.trials = 6 });
      let s = In_channel.with_open_bin path In_channel.input_all in
      let at =
        let sub = "\"rounds\":" in
        let rec find i =
          if String.sub s i (String.length sub) = sub then i + String.length sub
          else find (i + 1)
        in
        find 0
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub s 0 at ^ "99" ^ String.sub s (at + 1) (String.length s - at - 1)));
      let r =
        C.run ~checkpoint:(C.checkpoint ~path ~every:2 ~resume:true ()) cfg
      in
      Alcotest.(check int) "the damaged record ends the prefix" 0
        r.C.resumed_trials;
      Alcotest.(check string) "byte-identical to the cold run" full
        (C.json_string r))

(* Checkpoint codec coverage: the first 20 trials of this Poisson
   mean-3 campaign carry all four outcome classes in their records. *)
let class_cfg () =
  C.make_config ~mode:(C.Poisson 3.0) ~trials:20 ~seed:7 ~shrink:false ()

let checkpoint_doc path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> Alcotest.fail e

let checkpoint_records doc =
  match J.member "records" doc with
  | Some (J.List l) -> l
  | _ -> Alcotest.fail "checkpoint without records"

let test_checkpoint_classes_round_trip () =
  with_temp_ckpt (fun path ->
      let cfg = class_cfg () in
      let full = C.json_string (C.run cfg) in
      ignore (C.run ~checkpoint:(C.checkpoint ~path ~every:1 ()) cfg);
      let seen =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun k ->
                match J.member k r with Some (J.String c) -> Some c | _ -> None)
              [ "two_pass"; "iterated" ])
          (checkpoint_records (checkpoint_doc path))
      in
      List.iter
        (fun c -> Alcotest.(check bool) (c ^ " recorded") true (List.mem c seen))
        [ "passed_clean"; "repaired"; "too_many_faulty_rows";
          "fault_in_second_pass" ];
      let r =
        C.run ~checkpoint:(C.checkpoint ~path ~resume:true ()) cfg
      in
      Alcotest.(check int) "every record resumed" 20 r.C.resumed_trials;
      Alcotest.(check string) "byte-identical after resume" full
        (C.json_string r))

let set_field k v = function
  | J.Obj fs ->
      J.Obj (List.map (fun (k', x) -> (k', if k' = k then v else x)) fs)
  | j -> j

(* Rewrite checkpoint record [bad] with [f]: the resume must keep the
   valid prefix before it, recompute the rest, and still produce the
   uninterrupted report bytes. *)
let check_resume_stops_at ~name path cfg ~full ~bad f =
  let doc = checkpoint_doc path in
  let records =
    List.mapi (fun i r -> if i = bad then f r else r) (checkpoint_records doc)
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (J.to_string (set_field "records" (J.List records) doc)));
  let r = C.run ~checkpoint:(C.checkpoint ~path ~resume:true ()) cfg in
  Alcotest.(check int) ("prefix stops at the " ^ name) bad r.C.resumed_trials;
  Alcotest.(check string) "byte-identical after resume" full (C.json_string r)

let test_checkpoint_unknown_class_rejected () =
  with_temp_ckpt (fun path ->
      let cfg = class_cfg () in
      let full = C.json_string (C.run cfg) in
      ignore (C.run ~checkpoint:(C.checkpoint ~path ~every:1 ()) cfg);
      check_resume_stops_at ~name:"unknown class" path cfg ~full ~bad:5
        (set_field "iterated" (J.String "bogus")))

let test_checkpoint_unknown_kind_rejected () =
  with_temp_ckpt (fun path ->
      let cfg = class_cfg () in
      let full = C.json_string (C.run cfg) in
      ignore (C.run ~checkpoint:(C.checkpoint ~path ~every:1 ()) cfg);
      (* the first record with a failure gets a kind no version writes *)
      let failures r =
        match J.member "failures" r with Some (J.List l) -> l | _ -> []
      in
      let records = checkpoint_records (checkpoint_doc path) in
      let bad =
        match List.find_index (fun r -> failures r <> []) records with
        | Some i -> i
        | None -> Alcotest.fail "no record with a failure"
      in
      check_resume_stops_at ~name:"unknown failure kind" path cfg ~full ~bad
        (fun r ->
          set_field "failures"
            (J.List
               (List.map (set_field "kind" (J.String "bogus")) (failures r)))
            r))

let test_resume_missing_checkpoint_is_cold () =
  let cfg = C.make_config ~trials:6 ~seed:29 () in
  let cold = C.json_string (C.run cfg) in
  let r =
    C.run
      ~checkpoint:
        (C.checkpoint ~path:"/nonexistent-dir/nope.ckpt" ~resume:true ())
      cfg
  in
  Alcotest.(check int) "nothing resumed" 0 r.C.resumed_trials;
  Alcotest.(check string) "cold-start report" cold (C.json_string r)

let test_chaos_transients_absorbed () =
  (* injected transient job faults at a moderate rate are fully
     absorbed by the pool's retries: the report is byte-identical to a
     chaos-free run, at any job count (rate/seed verified to never
     exhaust the 3 attempts for these trial indices) *)
  let cfg = C.make_config ~trials:30 ~seed:19 () in
  let clean = C.json_string (C.run cfg) in
  Chaos.configure { Chaos.off with Chaos.seed = 11; Chaos.job_fail = 0.2 };
  Fun.protect ~finally:Chaos.disarm (fun () ->
      Alcotest.(check string) "absorbed at jobs 1" clean
        (C.json_string (C.run ~jobs:1 cfg));
      Alcotest.(check string) "absorbed at jobs 4" clean
        (C.json_string (C.run ~jobs:4 cfg)))

let test_chaos_tool_errors_recorded () =
  (* at rate 1 every attempt fails: each trial becomes a recorded
     tool_error outcome instead of aborting the campaign, and the
     report is still jobs-invariant *)
  let cfg = C.make_config ~trials:10 ~seed:19 () in
  Chaos.configure { Chaos.off with Chaos.seed = 1; Chaos.job_fail = 1.0 };
  Fun.protect ~finally:Chaos.disarm (fun () ->
      let a = C.run ~jobs:1 cfg in
      Alcotest.(check int) "every trial a tool error" 10
        (List.length a.C.tool_errors);
      Alcotest.(check int) "all trials still accounted" 10 a.C.trials_run;
      Alcotest.(check int) "no outcome counted" 0
        (a.C.two_pass.C.passed_clean + a.C.two_pass.C.repaired
        + a.C.two_pass.C.too_many_faulty_rows
        + a.C.two_pass.C.fault_in_second_pass);
      List.iteri
        (fun i te ->
          Alcotest.(check int) "trial order" i te.C.te_trial;
          Alcotest.(check bool) "diagnostic names chaos" true
            (String.length te.C.te_error > 0))
        a.C.tool_errors;
      let b = C.run ~jobs:4 cfg in
      Alcotest.(check string) "jobs-invariant" (C.json_string a)
        (C.json_string b))

let test_should_stop_drains_prefix () =
  (* the SIGINT path: a caller stop flag drains exactly like the
     budget, leaving the maximal contiguous prefix *)
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 5
  in
  let cfg = C.make_config ~trials:50 ~seed:3 () in
  let r = C.run ~should_stop:stop cfg in
  Alcotest.(check bool) "truncated" true r.C.truncated;
  Alcotest.(check int) "five-trial prefix" 5 r.C.trials_run;
  Alcotest.(check bool) "report renders" true
    (String.length (C.json_string r) > 0)

let test_trial_deadline_records_tool_errors () =
  (* a 1 ns per-trial deadline: the first cooperative poll (between the
     march and oracle flows) raises, and every trial lands in the
     report as a deadline tool error *)
  let cfg = C.make_config ~trials:4 ~seed:5 () in
  let r = C.run ~trial_deadline:(deadline 1e-9) cfg in
  Alcotest.(check int) "every trial deadlined" 4
    (List.length r.C.tool_errors);
  List.iter
    (fun te ->
      Alcotest.(check string) "deadline diagnostic"
        (Printexc.to_string Pool.Deadline_exceeded)
        te.C.te_error)
    r.C.tool_errors

(* every trial arms its own deadline, whatever its pool item holds; at
   width 1 as at 62, a trial that draws no fault still resolves without
   simulation, and the report is a deadline-free run's *)
let test_trial_deadline_per_trial () =
  let module Obs = Bisram_obs.Obs in
  let cfg = C.make_config ~mode:(C.Poisson 0.4) ~trials:130 ~seed:7 () in
  let free = C.json_string (C.run cfg) in
  let zero_fault =
    List.length
      (List.filter
         (fun i -> (C.replay cfg ~seed:(C.trial_seed cfg i)).C.t_faults = [])
         (List.init cfg.C.trials Fun.id))
  in
  Alcotest.(check bool) "some trials draw no fault" true (zero_fault > 0);
  List.iter
    (fun lanes ->
      Obs.set_enabled true;
      Obs.reset ();
      let report, counters =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_enabled false;
            Obs.reset ())
          (fun () ->
            let r = C.run ~lanes ~trial_deadline:(deadline 60.0) cfg in
            (C.json_string r, (Obs.snapshot ()).Obs.counters))
      in
      let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check int)
        (Printf.sprintf "lanes=%d zero-fault trials not simulated" lanes)
        zero_fault
        (counter "campaign.zero_fault_trials");
      Alcotest.(check int)
        (Printf.sprintf "lanes=%d every trial counted" lanes)
        130 (counter "campaign.trials");
      Alcotest.(check string)
        (Printf.sprintf "lanes=%d same bytes as without a deadline" lanes)
        free report)
    [ 1; 62 ]

(* A deadline that expires at once, in 62-trial items: a trial that
   draws no fault never polls it and stays clean, every other trial
   becomes its own tool error, and the bytes are width 1's. *)
let test_block_deadline () =
  let cfg = C.make_config ~mode:(C.Poisson 0.4) ~trials:130 ~seed:7 () in
  let wide = C.run ~trial_deadline:(deadline 1e-9) cfg in
  let faulty =
    List.filter
      (fun i -> (C.replay cfg ~seed:(C.trial_seed cfg i)).C.t_faults <> [])
      (List.init 130 Fun.id)
  in
  Alcotest.(check bool) "some trials draw faults" true (faulty <> []);
  Alcotest.(check (list int)) "exactly the faulty trials are tool errors"
    faulty
    (List.map (fun te -> te.C.te_trial) wide.C.tool_errors);
  Alcotest.(check int) "the rest passed clean"
    (130 - List.length faulty) wide.C.two_pass.C.passed_clean;
  Alcotest.(check string) "width 62 = width 1" (C.json_string wide)
    (C.json_string (C.run ~lanes:1 ~trial_deadline:(deadline 1e-9) cfg))

(* A deadline too large for a nanosecond int64 saturates instead of
   wrapping into the past; a non-finite or non-positive span is
   refused where it is made, so no campaign can arm one. *)
let test_deadline_bounds () =
  let cfg = C.make_config ~mode:(C.Poisson 3.0) ~trials:5 ~seed:7 () in
  let free = C.json_string (C.run cfg) in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "deadline %g = no deadline" s)
        free
        (C.json_string (C.run ~trial_deadline:(deadline s) cfg)))
    [ 60.0; 1e10; Float.max_float ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "deadline %g refused" s)
        true
        (Option.is_none (Pool.deadline s)))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* The pool-item width and the job count are scheduling only: at a
   faulty, a mostly clean, a repair-limited and a rare fault load, 130
   trials (two full 62-trial items and a ragged tail) give the same
   bytes one trial per item on one domain as at the default width on
   two; the rare pair also runs width 1 under a deadline. *)
let test_width_pairs () =
  List.iter
    (fun (name, mix, mode, trial_deadline) ->
      let cfg = C.make_config ~mix ~mode ~trials:130 ~seed:7 () in
      Alcotest.(check string) name
        (C.json_string (C.run ~jobs:2 cfg))
        (C.json_string (C.run ~jobs:1 ~lanes:1 ?trial_deadline cfg)))
    [ ("stuck-at", I.stuck_at_only, C.Uniform 2, None)
    ; ("poisson 0.4", I.default_mix, C.Poisson 0.4, None)
    ; ("poisson 3", I.default_mix, C.Poisson 3.0, None)
    ; ( "poisson 0.01 + deadline"
      , I.default_mix
      , C.Poisson 0.01
      , Some (deadline 60.0) )
    ]

(* A configuration made by record update skips [make_config]: [run]
   and [replay] check its mix and proposal before any trial, so a bad
   one is refused up front instead of becoming one tool error per
   trial.  [should_stop] is polled before every trial, so a call that
   never polls it scheduled none. *)
let test_bad_draw_refused_before_trials () =
  let cfg = C.make_config ~mode:(C.Poisson 0.5) ~trials:20 ~seed:7 () in
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (name, bad) ->
      let polled = Atomic.make false in
      let should_stop () = Atomic.set polled true; false in
      Alcotest.(check bool) (name ^ ": run refused") true
        (refused (fun () -> C.run ~should_stop bad));
      Alcotest.(check bool) (name ^ ": no trial scheduled") false
        (Atomic.get polled);
      Alcotest.(check bool) (name ^ ": replay refused") true
        (refused (fun () -> C.replay bad ~seed:(C.trial_seed cfg 0))))
    [ ("nan", { cfg with C.mix = { I.default_mix with I.transition = Float.nan } })
    ; ("negative", { cfg with C.mix = { I.default_mix with I.stuck_open = -1.0 } })
    ; ("all-zero", { cfg with C.mix = { I.stuck_at_only with I.stuck_at = 0.0 } })
    ; ( "proposal"
      , { cfg with
          C.proposal =
            Some
              { Bisram_faults.Proposal.count =
                  Bisram_faults.Proposal.Scaled { scale = -1.0; shift = 0.0 }
              ; mix = None
              }
        } )
    ]

(* A configuration whose fault-free flow is not clean is refused on
   every call, not only the first. *)
let test_dirty_march_refused_every_call () =
  let march = Bisram_bist.March.of_string ~name:"dirty" "u(w0); u(r1)" in
  let cfg = C.make_config ~march ~mode:(C.Poisson 0.1) ~trials:10 ~seed:7 () in
  List.iter
    (fun call ->
      Alcotest.(check bool) (Printf.sprintf "call %d refused" call) true
        (match C.run cfg with _ -> false | exception Failure _ -> true))
    [ 1; 2 ]

(* Zero-fault trials share one clean record and weights ride on the
   in-memory records.  A run resumed from a checkpoint of its first half
   (its clean records parse back as equal, not shared, values) and a
   run its stopping rule ends (the rule reads the result at every
   check) give the one-shot run's bytes; so does a weighted run resumed
   the same way, whose resumed weights are recomputed. *)
let test_clean_counter_resume_and_stop () =
  let cfg = C.make_config ~mode:(C.Poisson 0.3) ~trials:124 ~seed:7 () in
  let weighted =
    { cfg with
      C.proposal =
        Some
          { Bisram_faults.Proposal.count =
              Bisram_faults.Proposal.Stratified { nonzero = 0.5 }
          ; mix = None
          }
    }
  in
  let module E = Bisram_campaign.Estimator in
  List.iter
    (fun (name, cfg, render) ->
      let full = render (C.run cfg) in
      with_temp_ckpt (fun path ->
          ignore
            (C.run
               ~checkpoint:(C.checkpoint ~path ~every:31 ())
               { cfg with C.trials = 62 });
          let r = C.run ~checkpoint:(C.checkpoint ~path ~resume:true ()) cfg in
          Alcotest.(check int) (name ^ ": half resumed") 62 r.C.resumed_trials;
          Alcotest.(check string) (name ^ ": resumed = one-shot") full
            (render r)))
    [ ("nominal", cfg, C.json_string)
    ; ("weighted", weighted, fun r -> E.report_string r) ];
  let stopped =
    C.run ~stop_rule:(10, fun r -> r.C.two_pass.C.passed_clean >= 50) cfg
  in
  Alcotest.(check bool) "the rule stopped the run" true
    (stopped.C.trials_run < cfg.C.trials);
  Alcotest.(check string) "stopped = one-shot of its length"
    (C.json_string (C.run { cfg with C.trials = stopped.C.trials_run }))
    (C.json_string stopped)

(* [max_rounds] is not bounded: a bound no flow reaches gives the same
   tally as the default one, without a table sized by it.  A resumed
   record may carry any round count up to the bound; one past the
   counts the tally keeps in its array is still counted, in order. *)
let test_unbounded_max_rounds () =
  let cfg = C.make_config ~mode:(C.Poisson 3.0) ~trials:40 ~seed:7 () in
  let base = C.run cfg in
  List.iter
    (fun max_rounds ->
      let r = C.run { cfg with C.max_rounds } in
      let name = string_of_int max_rounds in
      Alcotest.(check (list (pair int int))) (name ^ ": rounds") base.C.rounds
        r.C.rounds;
      Alcotest.(check bool) (name ^ ": histograms") true
        (r.C.two_pass = base.C.two_pass && r.C.iterated = base.C.iterated))
    [ 1_000_000_000; max_int ];
  with_temp_ckpt (fun path ->
      let big = { cfg with C.max_rounds = 1_000_000_000; trials = 10 } in
      ignore
        (C.run
           ~checkpoint:(C.checkpoint ~path ~every:2 ())
           { big with C.trials = 4 });
      let s = In_channel.with_open_bin path In_channel.input_all in
      let at =
        let sub = "\"rounds\":" in
        let rec find i =
          if String.sub s i (String.length sub) = sub then i + String.length sub
          else find (i + 1)
        in
        find 0
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub s 0 at ^ "20" ^ String.sub s (at + 1) (String.length s - at - 1)));
      let r =
        C.run ~checkpoint:(C.checkpoint ~path ~every:2 ~resume:true ()) big
      in
      Alcotest.(check int) "the edited prefix resumes" 4 r.C.resumed_trials;
      Alcotest.(check (option (pair int int))) "round 20 counted last"
        (Some (20, 1)) (List.nth_opt r.C.rounds (List.length r.C.rounds - 1));
      Alcotest.(check int) "every trial counted once" 10
        (List.fold_left (fun n (_, k) -> n + k) 0 r.C.rounds))

let test_tool_errors_in_schema () =
  (* schema /2: the field is always present, also when empty *)
  let r = C.run (C.make_config ~trials:3 ~seed:1 ()) in
  let j = C.json_string r in
  Alcotest.(check bool) "schema bumped" true
    (let sub = "bisram-campaign/2" in
     let rec find i =
       i + String.length sub <= String.length j
       && (String.sub j i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check bool) "tool_errors always present" true
    (let sub = "\"tool_errors\":[]" in
     let rec find i =
       i + String.length sub <= String.length j
       && (String.sub j i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* The row-TLB oracle and the iterated flow share one engine run and
   its model, so the per-trial model counters flush that model once:
   [model.reads] is the controller model's reads plus the shared
   model's, escape sweeps included.  A 2D BIRA trial whose extractions
   all agree runs one flow on one model, which is also the reference
   and the iterated side: [model.reads] is that model's reads with one
   escape sweep, although the trial escapes on both flows. *)
let test_model_stats_flushed_once () =
  let module Obs = Bisram_obs.Obs in
  let module Bira = Bisram_bira.Bira in
  let counted_reads cfg faults =
    Obs.set_enabled true;
    Obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        ignore (C.run_faults cfg faults);
        List.assoc "model.reads" (Obs.snapshot ()).Obs.counters)
  in
  let cfg = C.make_config ~mode:(C.Poisson 3.0) () in
  let bgs = Datagen.required_backgrounds ~bpw:8 in
  let faults = (C.replay cfg ~seed:540766677).C.t_faults in
  let model_with cfg faults =
    let m = Model.create cfg.C.org in
    Model.set_faults m faults;
    m
  in
  let fresh () = model_with cfg faults in
  let success = function
    | Repair.Passed_clean | Repair.Repaired _ -> true
    | Repair.Repair_unsuccessful _ -> false
  in
  let mc = fresh () in
  let o, _, _ = Repair.run mc cfg.C.march ~backgrounds:bgs in
  if success o then ignore (Sweep.run mc);
  let mi = fresh () in
  let f =
    Repair.run_flows ~max_rounds:cfg.C.max_rounds mi cfg.C.march
      ~backgrounds:bgs
  in
  if success f.Repair.iterated.Repair.i_outcome then ignore (Sweep.run mi);
  Alcotest.(check int) "distinct models"
    (Model.reads mc + Model.reads mi)
    (counted_reads cfg faults);
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ~spare_cols:2 () in
  let cfg =
    C.make_config ~org ~mode:(C.Poisson 3.0) ~repair:(C.Bira Bira.Exhaustive) ()
  in
  (* an escape on both flows in test/golden_bira_p3.json *)
  let faults = (C.replay cfg ~seed:850162625).C.t_faults in
  let m = model_with cfg faults in
  let r, agreed =
    Bira.run_checked ~max_rounds:cfg.C.max_rounds Bira.Exhaustive m
      cfg.C.march ~backgrounds:bgs
  in
  Alcotest.(check bool) "extractions agree" true agreed;
  Alcotest.(check bool) "verdict passes" true (success r.Bira.b_outcome);
  Alcotest.(check int) "escapes on both flows" 2
    (List.length (snd (C.run_faults cfg faults)));
  ignore (Sweep.run m);
  Alcotest.(check int) "one model, one sweep" (Model.reads m)
    (counted_reads cfg faults)

(* A trial that draws no fault resolves to the clean record without
   simulation.  [replay] always simulates, so the report's outcome
   histograms, rounds table and escape/divergence seeds, rebuilt from
   the replay of every trial seed, must equal [run]'s: for every
   library march, under the row TLB and under 2D BIRA with 2 spare
   columns.  At Poisson mean 0.3 about 74% of the trials draw no
   fault. *)
let test_zero_fault_trials_equal_simulation () =
  let bump (a, b, c, d) = function
    | Repair.Passed_clean -> (a + 1, b, c, d)
    | Repair.Repaired _ -> (a, b + 1, c, d)
    | Repair.Repair_unsuccessful Repair.Too_many_faulty_rows -> (a, b, c + 1, d)
    | Repair.Repair_unsuccessful Repair.Fault_in_second_pass -> (a, b, c, d + 1)
  in
  let tuple h =
    C.(h.passed_clean, h.repaired, h.too_many_faulty_rows, h.fault_in_second_pass)
  in
  let setups =
    [ ("row-tlb", 0, C.Row_tlb); ("bira-bnb", 2, C.Bira Bisram_bira.Bira.Exhaustive) ]
  in
  List.iter
    (fun march ->
      List.iter
        (fun (rname, spare_cols, repair) ->
          let org = Org.make ~spare_cols ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
          let cfg =
            C.make_config ~org ~march ~repair ~mode:(C.Poisson 0.3) ~trials:124
              ~seed:7 ()
          in
          let r = C.run ~lanes:62 cfg in
          let trials =
            List.init cfg.C.trials (fun i ->
                C.replay cfg ~seed:(C.trial_seed cfg i))
          in
          let name what = Printf.sprintf "%s %s: %s" march.Bisram_bist.March.name rname what in
          let zero = (0, 0, 0, 0) in
          let hist f =
            List.fold_left (fun h t -> bump h (f t.C.t_verdicts)) zero trials
          in
          let q4 = Alcotest.(pair (pair int int) (pair int int)) in
          let pairs (a, b, c, d) = ((a, b), (c, d)) in
          Alcotest.check q4 (name "two-pass histogram")
            (pairs (hist (fun v -> v.C.controller)))
            (pairs (tuple r.C.two_pass));
          Alcotest.check q4 (name "iterated histogram")
            (pairs (hist (fun v -> v.C.iterated)))
            (pairs (tuple r.C.iterated));
          let rounds =
            List.fold_left
              (fun acc t ->
                let k = t.C.t_verdicts.C.rounds in
                (k, 1 + Option.value ~default:0 (List.assoc_opt k acc))
                :: List.remove_assoc k acc)
              [] trials
            |> List.sort compare
          in
          Alcotest.(check (list (pair int int))) (name "rounds table") rounds
            r.C.rounds;
          let seeds keep =
            List.concat_map
              (fun t ->
                List.filter_map
                  (fun a -> if keep a then Some t.C.t_seed else None)
                  t.C.t_anomalies)
              trials
          in
          let escape = function C.Escape _ -> true | C.Divergence _ -> false in
          let failure_seeds = List.map (fun f -> f.C.f_seed) in
          Alcotest.(check (list int)) (name "escape seeds") (seeds escape)
            (failure_seeds r.C.escapes);
          Alcotest.(check (list int)) (name "divergence seeds")
            (seeds (fun a -> not (escape a)))
            (failure_seeds r.C.divergences))
        setups)
    Alg.all

(* ------------------------------------------------------------------ *)
(* properties: differential oracle and no silent escapes *)

let prop_oracle_agreement =
  (* controller and functional reference agree on every outcome, for
     random fault sets across every class of the default mix *)
  QCheck.Test.make ~name:"controller agrees with reference oracle" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 6))
    (fun (seed, n) ->
      let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
      let rng = Random.State.make [| 0xD1FF; seed |] in
      let faults =
        I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
          ~mix:I.default_mix ~n
      in
      let bgs = Datagen.required_backgrounds ~bpw:8 in
      let run_on () =
        let m = Model.create org in
        Model.set_faults m faults;
        m
      in
      let mc = run_on () in
      let controller, _, _ = Repair.run mc Alg.ifa_9 ~backgrounds:bgs in
      let mr = run_on () in
      let reference, _ = Repair.run_reference mr Alg.ifa_9 ~backgrounds:bgs in
      match (controller, reference) with
      | Repair.Passed_clean, Repair.Passed_clean -> true
      | Repair.Repaired a, Repair.Repaired b -> a = b
      | Repair.Repair_unsuccessful a, Repair.Repair_unsuccessful b -> a = b
      | _ -> false)

let prop_no_silent_escape_stuck_at =
  (* for the fault class the march covers completely, a success verdict
     from the iterated flow means the sweep finds nothing *)
  QCheck.Test.make
    ~name:"run_iterated never reports Repaired over a faulty logical cell"
    ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 8))
    (fun (seed, n) ->
      let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
      let rng = Random.State.make [| 0x5CA9; seed |] in
      let faults =
        I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
          ~mix:I.stuck_at_only ~n
      in
      let m = Model.create org in
      Model.set_faults m faults;
      let r =
        Repair.run_iterated_result m Alg.ifa_9
          ~backgrounds:(Datagen.required_backgrounds ~bpw:8)
      in
      match r.Repair.i_outcome with
      | Repair.Passed_clean | Repair.Repaired _ -> Sweep.clean m
      | Repair.Repair_unsuccessful _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "campaign"
    [ ( "json"
      , [ Alcotest.test_case "rendering" `Quick test_json_rendering ] )
    ; ( "shrink"
      , [ Alcotest.test_case "single culprit" `Quick test_shrink_single_culprit
        ; Alcotest.test_case "pair" `Quick test_shrink_pair
        ; Alcotest.test_case "size threshold" `Quick test_shrink_size_threshold
        ; Alcotest.test_case "not failing" `Quick test_shrink_not_failing
        ; QCheck_alcotest.to_alcotest prop_shrink_minimal
        ] )
    ; ( "sweep"
      , [ Alcotest.test_case "clean RAM" `Quick test_sweep_clean_ram
        ; Alcotest.test_case "unrepaired fault" `Quick
            test_sweep_sees_unrepaired_fault
        ; Alcotest.test_case "repaired fault invisible" `Quick
            test_sweep_blind_after_remap
        ; Alcotest.test_case "row out of range raises" `Quick
            test_sweep_row_out_of_range
        ; QCheck_alcotest.to_alcotest prop_sweep_spans_equal_per_op
        ] )
    ; ( "campaign"
      , [ Alcotest.test_case "deterministic report" `Quick
            test_campaign_deterministic
        ; Alcotest.test_case "seed sensitivity" `Quick
            test_campaign_seed_changes_report
        ; Alcotest.test_case "known escape detected+shrunk" `Quick
            test_known_escape_detected_and_shrunk
        ; Alcotest.test_case "known escape shrunk like minimize" `Quick
            test_known_escape_shrunk_like_minimize
        ; Alcotest.test_case "known escape replayable" `Quick
            test_known_escape_replayable
        ; Alcotest.test_case "divergence replay pinned" `Quick
            test_divergence_replay_pinned
        ; Alcotest.test_case "stuck-at mix is anomaly-free" `Quick
            test_clean_mix_has_no_anomalies
        ; Alcotest.test_case "budget truncates" `Quick test_budget_truncates
        ; Alcotest.test_case "budget partial results" `Quick
            test_budget_partial
        ; Alcotest.test_case "budget now confined to caller" `Quick
            test_budget_now_caller_only
        ; Alcotest.test_case "budget parallel prefix semantics" `Quick
            test_budget_parallel_prefix_semantics
        ; Alcotest.test_case "unbudgeted runs all" `Quick
            test_unbudgeted_runs_all
        ; Alcotest.test_case "rounds histogram totals" `Quick
            test_rounds_histogram_totals
        ; Alcotest.test_case "parallel report byte-identical" `Quick
            test_jobs_byte_identical
        ; Alcotest.test_case "jobs validation" `Quick test_jobs_validation
        ; Alcotest.test_case "golden /2 bytes frozen" `Quick
            test_golden_v2_bytes_frozen
        ; Alcotest.test_case "golden row-tlb poisson-3 bytes" `Quick
            test_golden_row_tlb_p3
        ; Alcotest.test_case "golden March C- poisson-3 bytes" `Quick
            test_golden_marchc_p3
        ; Alcotest.test_case "model stats flushed once per model" `Quick
            test_model_stats_flushed_once
        ; Alcotest.test_case "zero-fault trials equal their simulation" `Quick
            test_zero_fault_trials_equal_simulation
        ; Alcotest.test_case "observed yield brackets analytic" `Slow
            test_yield_brackets_analytic
        ] )
    ; ( "resilience"
      , [ QCheck_alcotest.to_alcotest prop_kill_resume_byte_identical
        ; Alcotest.test_case "config mismatch rejects checkpoint" `Quick
            test_checkpoint_config_mismatch_rejected
        ; Alcotest.test_case "out-of-range rounds end the resumed prefix"
            `Quick test_checkpoint_rounds_out_of_range
        ; Alcotest.test_case "corrupt checkpoint degrades" `Quick
            test_checkpoint_corruption_degrades
        ; Alcotest.test_case "missing checkpoint is a cold start" `Quick
            test_resume_missing_checkpoint_is_cold
        ; Alcotest.test_case "checkpoint round-trips every outcome class"
            `Quick test_checkpoint_classes_round_trip
        ; Alcotest.test_case "checkpoint rejects an unknown outcome class"
            `Quick test_checkpoint_unknown_class_rejected
        ; Alcotest.test_case "checkpoint rejects an unknown failure kind"
            `Quick test_checkpoint_unknown_kind_rejected
        ; Alcotest.test_case "chaos transients absorbed by retries" `Quick
            test_chaos_transients_absorbed
        ; Alcotest.test_case "crashing trials become tool errors" `Quick
            test_chaos_tool_errors_recorded
        ; Alcotest.test_case "should_stop drains the prefix" `Quick
            test_should_stop_drains_prefix
        ; Alcotest.test_case "trial deadline records tool errors" `Quick
            test_trial_deadline_records_tool_errors
        ; Alcotest.test_case "trial deadline is per trial at any lanes"
            `Quick test_trial_deadline_per_trial
        ; Alcotest.test_case "deadline expiring inside a 62-trial item"
            `Quick test_block_deadline
        ; Alcotest.test_case "deadline saturates, bad deadlines refused"
            `Quick test_deadline_bounds
        ; Alcotest.test_case "width and jobs pairs byte-identical" `Quick
            test_width_pairs
        ; Alcotest.test_case "tool_errors field in schema" `Quick
            test_tool_errors_in_schema
        ; Alcotest.test_case "bad mix or proposal refused before any trial"
            `Quick test_bad_draw_refused_before_trials
        ; Alcotest.test_case "dirty march refused on every call" `Quick
            test_dirty_march_refused_every_call
        ; Alcotest.test_case "resume and stop rule = one-shot" `Quick
            test_clean_counter_resume_and_stop
        ; Alcotest.test_case "unbounded max_rounds" `Quick
            test_unbounded_max_rounds
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_oracle_agreement
        ; QCheck_alcotest.to_alcotest prop_no_silent_escape_stuck_at
        ] )
    ]
