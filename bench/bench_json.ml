(* Machine-readable benchmark trajectory.

   Times the Monte Carlo campaign at several --jobs levels, a small
   explore sweep cache-cold and cache-warm, and the core simulation
   kernels (fast fault-free path vs the legacy per-cell fault
   machinery), then writes BENCH_campaign.json at the repo root so
   later PRs have a perf baseline to regress against.

   Every measurement is wall-clock via the monotonic clock; the
   machine's core count is recorded because parallel speedup is bounded
   by it (a 1-core container runs jobs=4 at ~1x, and that is the honest
   number to store).  Each kernel also records its minor-heap
   allocation per op ([Gc.minor_words] delta — allocation is
   deterministic, so a single sample is exact), which is the metric
   the packed word/row representation is meant to drive to zero.

   --smoke shrinks trials/reps to a few-second run for CI wiring
   checks; its numbers are noise, so it refuses to overwrite the
   committed baseline unless -o points elsewhere. *)

module C = Bisram_campaign.Campaign
module E = Bisram_campaign.Estimator
module Prop = Bisram_faults.Proposal
module J = Bisram_obs.Json
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen
module Clock = Bisram_parallel.Clock
module Pool = Bisram_parallel.Pool
module Obs = Bisram_obs.Obs
module Export = Bisram_obs.Export

let smoke = ref false
let quick = ref false

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* best-of-k wall time: robust against scheduler noise on small boxes *)
let best_of k f =
  let k = if !smoke || !quick then 1 else k in
  let best = ref infinity in
  for _ = 1 to k do
    let _, s = time f in
    if s < !best then best := s
  done;
  !best

(* minor-heap words allocated by one run of [f] *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* ------------------------------------------------------------------ *)
(* campaign throughput at increasing job counts *)

(* A jobs level beyond the machine's core count cannot speed anything
   up — domains time-share the same cores and the measured "speedup"
   is mostly scheduler noise (a 1-core box once recorded 0.22x here as
   if it were a regression).  Such levels are skipped and flagged
   instead of timed. *)
let campaign_runs ~trials ~jobs_levels =
  let cfg =
    C.make_config ~mode:(C.Uniform 0) ~trials ~seed:1999 ~shrink:false ()
  in
  let cores = Pool.recommended_jobs () in
  let baseline = ref None in
  let runs, identical =
    List.fold_left
      (fun (runs, identical) jobs ->
        if jobs > cores then (runs @ [ `Skipped jobs ], identical)
        else begin
          ignore (C.run ~jobs cfg) (* warm-up: page in code and heap *);
          let report = ref "" in
          let seconds =
            best_of 2 (fun () -> report := C.json_string (C.run ~jobs cfg))
          in
          let identical =
            identical
            &&
            match !baseline with
            | None ->
                baseline := Some !report;
                true
            | Some b -> String.equal b !report
          in
          let tps = float_of_int trials /. seconds in
          (runs @ [ `Run (jobs, seconds, tps) ], identical)
        end)
      ([], true) jobs_levels
  in
  let base_tps =
    match
      List.find_map
        (function `Run (_, _, tps) -> Some tps | `Skipped _ -> None)
        runs
    with
    | Some tps -> tps
    | None -> nan
  in
  let run_json = function
    | `Run (jobs, seconds, tps) ->
        J.Obj
          [ ("jobs", J.Int jobs)
          ; ("jobs_exceed_cores", J.Bool false)
          ; ("seconds", J.Float seconds)
          ; ("trials_per_sec", J.Float tps)
          ; ("speedup_vs_jobs1", J.Float (tps /. base_tps))
          ]
    | `Skipped jobs ->
        J.Obj
          [ ("jobs", J.Int jobs)
          ; ("jobs_exceed_cores", J.Bool true)
          ; ("skipped", J.Bool true)
          ; ( "skip_reason"
            , J.String
                (Printf.sprintf
                   "jobs %d exceeds the machine's %d core(s); a timed run \
                    would report scheduler noise as speedup"
                   jobs cores) )
          ]
  in
  J.Obj
    [ ( "org"
      , J.Obj
          [ ("words", J.Int cfg.C.org.Org.words)
          ; ("bpw", J.Int cfg.C.org.Org.bpw)
          ; ("bpc", J.Int cfg.C.org.Org.bpc)
          ; ("spares", J.Int cfg.C.org.Org.spares)
          ] )
    ; ("trials", J.Int trials)
    ; ("faults_per_trial", J.Int 0)
    ; ("reports_identical_across_jobs", J.Bool identical)
    ; ("runs", J.List (List.map run_json runs))
    ]

(* ------------------------------------------------------------------ *)
(* lane-sliced batching: trials_per_sec at increasing lane widths,
   always at jobs = 1 so the figure isolates the bit-parallel win from
   the domain-level one.  The trial count is divisible by every
   measured width, so no ragged tail dilutes the wide-lane numbers
   with scalar fallback work.  Lanes are purely a throughput knob —
   the reports must stay byte-identical across widths, and that check
   is recorded in the section. *)

let lane_runs ~trials =
  let cfg =
    C.make_config ~mode:(C.Uniform 0) ~trials ~seed:1999 ~shrink:false ()
  in
  let levels = [ 1; 8; 62 ] in
  ignore (C.run ~jobs:1 ~lanes:62 cfg) (* warm-up: page in code and heap *);
  let baseline = ref None in
  let runs, identical =
    List.fold_left
      (fun (runs, identical) lanes ->
        let report = ref "" in
        let seconds =
          best_of 2 (fun () ->
              report := C.json_string (C.run ~jobs:1 ~lanes cfg))
        in
        let identical =
          identical
          &&
          match !baseline with
          | None ->
              baseline := Some !report;
              true
          | Some b -> String.equal b !report
        in
        let tps = float_of_int trials /. seconds in
        (runs @ [ (lanes, seconds, tps) ], identical))
      ([], true) levels
  in
  let scalar_tps =
    match runs with (1, _, tps) :: _ -> tps | _ -> nan
  in
  let run_json (lanes, seconds, tps) =
    J.Obj
      [ ("lanes", J.Int lanes)
      ; ("seconds", J.Float seconds)
      ; ("trials_per_sec", J.Float tps)
      ; ("speedup_vs_scalar", J.Float (tps /. scalar_tps))
      ]
  in
  J.Obj
    [ ( "org"
      , J.Obj
          [ ("words", J.Int cfg.C.org.Org.words)
          ; ("bpw", J.Int cfg.C.org.Org.bpw)
          ; ("bpc", J.Int cfg.C.org.Org.bpc)
          ; ("spares", J.Int cfg.C.org.Org.spares)
          ] )
    ; ("trials", J.Int trials)
    ; ("faults_per_trial", J.Int 0)
    ; ("jobs", J.Int 1)
    ; ("reports_identical_across_lanes", J.Bool identical)
    ; ("runs", J.List (List.map run_json runs))
    ]

(* ------------------------------------------------------------------ *)
(* rare-event estimation: trials and wall-clock to a ±10% relative CI
   on the repair-failure rate — naive sampling vs a stratified count
   proposal vs importance sampling (count mean shifted to ~0.5) at
   three defect densities.  The rig (zero spare rows, stuck-at-only
   mix) makes the failure probability exactly 1 - e^-lambda, so every
   recorded rate is auditable against ground truth.  The headline is
   the lowest-density row: naive sampling needs roughly
   z^2 / (target^2 * p) trials to pin the rate, the biased proposals a
   density-independent few hundred — fewer trials *and* less wall
   clock, which is the point of the estimation layer. *)

let estimator_runs () =
  let target = if !smoke then 0.3 else 0.1 in
  let densities = if !smoke then [ 0.05 ] else [ 0.05; 0.01; 0.002 ] in
  let max_trials = if !smoke then 5_000 else 600_000 in
  let batch = if !smoke then 124 else 992 in
  let rare_cfg ?proposal lambda =
    let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:0 () in
    C.make_config ~org ~mix:Bisram_faults.Injection.stuck_at_only
      ~mode:(C.Poisson lambda) ?proposal ~trials:1 ~seed:1999 ~shrink:false ()
  in
  let strategies lambda =
    [ ("naive", None)
    ; ( "stratified"
      , Some { Prop.count = Prop.Stratified { nonzero = 0.5 }; mix = None } )
    ; ( "importance"
      , Some
          { Prop.count =
              Prop.Scaled
                { scale = Float.max 1.0 (0.5 /. lambda); shift = 0.0 }
          ; mix = None
          } )
    ]
  in
  let run lambda (name, proposal) =
    let cfg = rare_cfg ?proposal lambda in
    let a, seconds =
      (* adaptive runs are seconds long, so a single timed sample is
         already stable — and the reductions being claimed are 10x+ *)
      time (fun () ->
          E.run_adaptive ~lanes:62 ~batch ~metric:E.Repair_failure_two_pass
            ~max_trials ~target cfg)
    in
    let e = E.estimate a.E.a_result E.Repair_failure_two_pass in
    (name, a, e, seconds)
  in
  let density lambda =
    let rows = List.map (run lambda) (strategies lambda) in
    let naive_trials, naive_s =
      match rows with
      | (_, a, _, s) :: _ -> (a.E.a_result.C.trials_run, s)
      | [] -> (0, nan)
    in
    let row (name, a, e, seconds) =
      let trials = a.E.a_result.C.trials_run in
      J.Obj
        [ ("strategy", J.String name)
        ; ("reached_target", J.Bool (a.E.a_reason = E.Target_reached))
        ; ("trials", J.Int trials)
        ; ("seconds", J.Float seconds)
        ; ("rate", J.Float e.E.e_rate)
        ; ("rel_half_width", J.Float a.E.a_rel_half_width)
        ; ( "trials_reduction_vs_naive"
          , J.Float (float_of_int naive_trials /. float_of_int (max 1 trials))
          )
        ; ("wall_clock_reduction_vs_naive", J.Float (naive_s /. seconds))
        ]
    in
    J.Obj
      [ ("lambda", J.Float lambda)
      ; ("true_rate", J.Float (1.0 -. exp (-.lambda)))
      ; ("rows", J.List (List.map row rows))
      ]
  in
  J.Obj
    [ ("metric", J.String "repair_failure_two_pass")
    ; ("target_rel_half_width", J.Float target)
    ; ("batch", J.Int batch)
    ; ("max_trials", J.Int max_trials)
    ; ("densities", J.List (List.map density densities))
    ]

(* ------------------------------------------------------------------ *)
(* explore sweep: cold throughput and warm-cache hit behaviour *)

module Spec = Bisram_explore.Spec
module Explore = Bisram_explore.Explore

let rm_rf_cache dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let explore_spec () =
  let text =
    if !smoke then
      "words = 64\n\
       bpw = 8\n\
       bpc = 4\n\
       spares = 0, 4\n\
       mean_defects = 1\n\
       evaluators = area, yield, cost, reliability\n"
    else
      "words = 64, 128\n\
       bpw = 8\n\
       bpc = 4\n\
       spares = 0, 4, 8\n\
       mean_defects = 1, 4\n\
       evaluators = area, yield, cost, reliability\n"
  in
  match Spec.of_string text with
  | Ok s -> s
  | Error e ->
      Printf.eprintf "bench_json: bad built-in explore spec: %s\n" e;
      exit 1

let explore_sweep () =
  let spec = explore_spec () in
  let dir = Filename.temp_file "bisram-bench-explore" ".cache" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let run_timed ~resume =
    let res = ref None in
    let seconds =
      best_of 2 (fun () ->
          res := Some (Explore.run ~jobs:1 ~cache_dir:dir ~resume spec))
    in
    (Option.get !res, seconds)
  in
  (* cold: resume off ignores existing entries, so repeats stay cold *)
  let cold, cold_s = run_timed ~resume:false in
  let warm, warm_s = run_timed ~resume:true in
  let identical =
    String.equal (Explore.json_string cold) (Explore.json_string warm)
  in
  rm_rf_cache dir;
  let points = Array.length cold.Explore.points in
  let evals = Explore.evaluations cold in
  let rate hits = float_of_int hits /. float_of_int (max 1 evals) in
  let run_json (r : Explore.result) seconds =
    J.Obj
      [ ("seconds", J.Float seconds)
      ; ("points_per_sec", J.Float (float_of_int points /. seconds))
      ; ("cache_hits", J.Int r.Explore.cache_hits)
      ; ("cache_misses", J.Int r.Explore.cache_misses)
      ; ("hit_rate", J.Float (rate r.Explore.cache_hits))
      ]
  in
  J.Obj
    [ ("points", J.Int points)
    ; ("evaluations", J.Int evals)
    ; ("cold", run_json cold cold_s)
    ; ("warm", run_json warm warm_s)
    ; ("warm_speedup", J.Float (cold_s /. warm_s))
    ; ("reports_identical_cold_vs_warm", J.Bool identical)
    ]

(* ------------------------------------------------------------------ *)
(* kernel microbenchmarks: fast path vs legacy per-cell machinery *)

type kmeasure = { ns_per_op : float; ops : int; minor_words_per_op : float }

let kernel ~name ~variant m =
  J.Obj
    [ ("name", J.String name)
    ; ("variant", J.String variant)
    ; ("ns_per_op", J.Float m.ns_per_op)
    ; ("ops", J.Int m.ops)
    ; ("minor_words_per_op", J.Float m.minor_words_per_op)
    ]

let measure ~ops f =
  let seconds = best_of 3 f in
  let mw = minor_words_of f in
  { ns_per_op = seconds /. float_of_int ops *. 1e9
  ; ops
  ; minor_words_per_op = mw /. float_of_int ops
  }

let march_kernel ~fast =
  let org = Org.make ~words:1024 ~bpw:4 ~bpc:4 ~spares:4 () in
  let bgs = Datagen.required_backgrounds ~bpw:4 in
  let m = Model.create org in
  Model.set_fast_path m fast;
  let reps = if !smoke then 1 else 5 in
  let ops =
    reps * Engine.op_count Alg.ifa_9 org ~backgrounds:(List.length bgs)
  in
  measure ~ops (fun () ->
      for _ = 1 to reps do
        ignore (Engine.passes m Alg.ifa_9 ~backgrounds:bgs)
      done)

let word_rw_kernel ~fast =
  let org = Org.make ~words:4096 ~bpw:8 ~bpc:4 ~spares:4 () in
  let m = Model.create org in
  Model.set_fast_path m fast;
  let w = Word.of_int ~width:8 0xA5 in
  let reps = if !smoke then 2 else 20 in
  let ops = reps * org.Org.words * 2 in
  measure ~ops (fun () ->
      for _ = 1 to reps do
        for a = 0 to org.Org.words - 1 do
          Model.write_word m a w;
          ignore (Model.read_word m a)
        done
      done)

let clear_kernel ~dirty =
  (* dirty = full array written since last clear; clean = nothing
     written, so the dirty-row clear is O(1) row scans *)
  let org = Org.make ~words:4096 ~bpw:8 ~bpc:4 ~spares:4 () in
  let m = Model.create org in
  let w = Word.of_int ~width:8 0xFF in
  let reps = if !smoke then 10 else 200 in
  let m' =
    measure ~ops:reps (fun () ->
        for _ = 1 to reps do
          if dirty then
            for a = 0 to org.Org.words - 1 do
              Model.write_word m a w
            done;
          Model.clear m
        done)
  in
  (* ns_per_op for this kernel means ns per clear *)
  m'

let kernels () =
  let fast = march_kernel ~fast:true in
  let legacy = march_kernel ~fast:false in
  let rw_fast = word_rw_kernel ~fast:true in
  let rw_legacy = word_rw_kernel ~fast:false in
  let clear_clean = clear_kernel ~dirty:false in
  let clear_dirty = clear_kernel ~dirty:true in
  ( J.List
      [ kernel ~name:"ifa9_march_clean_4kb" ~variant:"fast" fast
      ; kernel ~name:"ifa9_march_clean_4kb" ~variant:"legacy" legacy
      ; kernel ~name:"word_rw_clean_32kb" ~variant:"fast" rw_fast
      ; kernel ~name:"word_rw_clean_32kb" ~variant:"legacy" rw_legacy
      ; kernel ~name:"clear_untouched_32kb" ~variant:"fast" clear_clean
      ; kernel ~name:"clear_after_full_write_32kb" ~variant:"fast" clear_dirty
      ]
  , J.Obj
      [ ( "ifa9_march_fast_vs_legacy"
        , J.Float (legacy.ns_per_op /. fast.ns_per_op) )
      ; ( "word_rw_fast_vs_legacy"
        , J.Float (rw_legacy.ns_per_op /. rw_fast.ns_per_op) )
      ] )

(* ------------------------------------------------------------------ *)
(* 2D BIRA: allocator throughput on a seeded synthetic problem set
   (allocation is pure line-cover, so this isolates the allocators from
   the simulation), plus the repair-rate win of 2D repair over row-only
   TLB repair at a defect density heavy enough that clustered faults
   exhaust the row spares.  At realistic (single-digit) fault counts
   the must-repair preamble resolves most problems outright, so even
   branch and bound stays in the hundreds of thousands of allocations
   per second; the repair-rate rows are seeded campaigns, so they are
   exact re-runnable numbers, not samples. *)

module Cover = Bisram_bira.Cover

let bira_problems ~count =
  let rng = Random.State.make [| 0xB12A; 1999 |] in
  List.init count (fun _ ->
      let n = 1 + Random.State.int rng 8 in
      let cells =
        List.init n (fun _ ->
            (Random.State.int rng 32, Random.State.int rng 32))
      in
      { Cover.rows = 32; cols = 32; spare_rows = 4; spare_cols = 2; cells })

let bira_allocators () =
  let count = if !smoke then 50 else 2000 in
  let problems = bira_problems ~count in
  let bench (module A : Cover.Allocator) =
    let covered =
      List.fold_left
        (fun n p ->
          match A.solve p with Cover.Cover _ -> n + 1 | Cover.Uncoverable -> n)
        0 problems
    in
    let seconds =
      best_of 3 (fun () -> List.iter (fun p -> ignore (A.solve p)) problems)
    in
    J.Obj
      [ ("allocator", J.String A.name)
      ; ("problems", J.Int count)
      ; ("covered", J.Int covered)
      ; ("seconds", J.Float seconds)
      ; ("allocations_per_sec", J.Float (float_of_int count /. seconds))
      ]
  in
  J.List
    (List.map bench
       [ (module Cover.Greedy : Cover.Allocator)
       ; (module Cover.Essential)
       ; (module Cover.Exhaustive)
       ])

let bira_repair_rates () =
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ~spare_cols:2 () in
  let trials = if !smoke then 10 else 80 in
  let run repair =
    let cfg =
      C.make_config ~org ~mode:(C.Poisson 3.0) ~repair ~trials ~seed:11
        ~shrink:false ()
    in
    let r = C.run ~jobs:1 cfg in
    (r.C.observed_yield_iterated, r.C.analytic_yield)
  in
  let row name repair =
    let observed, analytic = run repair in
    J.Obj
      [ ("repair", J.String name)
      ; ("observed_repair_rate", J.Float observed)
      ; ("analytic_yield", J.Float analytic)
      ]
  in
  J.Obj
    [ ("mode", J.String "poisson")
    ; ("mean_defects", J.Float 3.0)
    ; ("trials", J.Int trials)
    ; ("spare_rows", J.Int 4)
    ; ("spare_cols", J.Int 2)
    ; ( "rows"
      , J.List
          [ row "row-tlb" C.Row_tlb
          ; row "bira-greedy" (C.Bira Bisram_bira.Bira.Greedy)
          ; row "bira-bnb" (C.Bira Bisram_bira.Bira.Exhaustive)
          ] )
    ]

let bira_section () =
  J.Obj
    [ ("allocators", bira_allocators ())
    ; ("repair_rates", bira_repair_rates ())
    ]

(* ------------------------------------------------------------------ *)
(* telemetry: instrumentation overhead and access-regime hit ratios *)

(* The march kernel with the registry disabled vs enabled.  The
   disabled figure is the one to hold against the committed baseline:
   instrumentation must stay within noise (<2%) of the uninstrumented
   kernel when telemetry is off. *)
let telemetry_overhead () =
  Obs.set_enabled false;
  let disabled = march_kernel ~fast:true in
  Obs.set_enabled true;
  Obs.reset ();
  let enabled = march_kernel ~fast:true in
  Obs.set_enabled false;
  Obs.reset ();
  J.Obj
    [ ("kernel", J.String "ifa9_march_clean_4kb")
    ; ("disabled_ns_per_op", J.Float disabled.ns_per_op)
    ; ("enabled_ns_per_op", J.Float enabled.ns_per_op)
    ; ( "enabled_over_disabled"
      , J.Float (enabled.ns_per_op /. disabled.ns_per_op) )
    ]

(* Fast/legacy hit counts over a faulty campaign (default mix): the
   honest utilization of the packed store when real fault machinery is
   armed, not the fault-free best case the kernels measure. *)
let model_hit_ratios () =
  Obs.set_enabled true;
  Obs.reset ();
  let cfg =
    C.make_config ~mode:(C.Uniform 2)
      ~trials:(if !smoke then 5 else 50)
      ~seed:2024 ~shrink:false ()
  in
  ignore (C.run cfg);
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  Obs.reset ();
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)
  in
  let fr = counter "model.fast_reads" and lr = counter "model.legacy_reads" in
  let fw = counter "model.fast_writes" and lw = counter "model.legacy_writes" in
  let ratio fast legacy =
    if fast + legacy = 0 then J.Null
    else J.Float (float_of_int fast /. float_of_int (fast + legacy))
  in
  J.Obj
    [ ("fast_reads", J.Int fr)
    ; ("legacy_reads", J.Int lr)
    ; ("fast_writes", J.Int fw)
    ; ("legacy_writes", J.Int lw)
    ; ("fast_read_ratio", ratio fr lr)
    ; ("fast_write_ratio", ratio fw lw)
    ]

(* ------------------------------------------------------------------ *)
(* resilience: the price of fault tolerance when nothing goes wrong
   (checkpointing a healthy campaign) and when everything does (healing
   a fully corrupted explore cache).  The acceptance line is that
   checkpointing must stay within 2% of the uncheckpointed run — the
   snapshot serializes the whole completed prefix, so this is the
   figure that catches an accidentally quadratic writer. *)

let checkpoint_overhead () =
  let trials = if !smoke then 20 else 400 in
  let cfg =
    C.make_config ~mode:(C.Uniform 0) ~trials ~seed:1999 ~shrink:false ()
  in
  let ckpt = Filename.temp_file "bisram-bench" ".ckpt.json" in
  let once every =
    match every with
    | 0 -> ignore (C.run ~jobs:1 cfg)
    | every ->
        ignore
          (C.run ~jobs:1 ~checkpoint:(C.checkpoint ~path:ckpt ~every ()) cfg)
  in
  (* interleave the configurations within each rep so a noise burst on
     a shared box penalizes every configuration alike instead of
     landing on one and reading as overhead (or as a speedup) *)
  let everys = [ 0; 100; 1000 ] in
  let best = Hashtbl.create 4 in
  List.iter (fun e -> Hashtbl.replace best e infinity) everys;
  ignore (C.run ~jobs:1 cfg) (* warm-up: page in code and heap *);
  let reps = if !smoke then 1 else 5 in
  for _ = 1 to reps do
    List.iter
      (fun e ->
        let _, s = time (fun () -> once e) in
        if s < Hashtbl.find best e then Hashtbl.replace best e s)
      everys
  done;
  let base = Hashtbl.find best 0 in
  let level every =
    let s = Hashtbl.find best every in
    let pct = (s -. base) /. base *. 100.0 in
    J.Obj
      [ ("every", J.Int every)
      ; ("seconds", J.Float s)
      ; ("overhead_pct", J.Float pct)
      ; ("within_acceptance", J.Bool (pct <= 2.0))
      ]
  in
  let levels = List.map level [ 100; 1000 ] in
  (try Sys.remove ckpt with Sys_error _ -> ());
  J.Obj
    [ ("trials", J.Int trials)
    ; ("baseline_seconds", J.Float base)
    ; ("acceptance_overhead_pct", J.Float 2.0)
    ; ("levels", J.List levels)
    ]

let corrupt_entries dir =
  Array.fold_left
    (fun n name ->
      if Filename.check_suffix name ".json" then begin
        let oc = open_out (Filename.concat dir name) in
        output_string oc "{ damaged";
        close_out oc;
        n + 1
      end
      else n)
    0 (Sys.readdir dir)

let self_heal_cost () =
  let spec = explore_spec () in
  let dir = Filename.temp_file "bisram-bench-heal" ".cache" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  ignore (Explore.run ~jobs:1 ~cache_dir:dir spec) (* populate *);
  let warm_s =
    best_of 2 (fun () ->
        ignore (Explore.run ~jobs:1 ~cache_dir:dir ~resume:true spec))
  in
  (* healing is one-shot by nature — the first pass repairs the cache —
     so it is a single sample, not a best-of *)
  let entries = corrupt_entries dir in
  let healed = ref None in
  let _, heal_s =
    time (fun () ->
        healed := Some (Explore.run ~jobs:1 ~cache_dir:dir ~resume:true spec))
  in
  let quarantined =
    match !healed with
    | Some r -> r.Explore.cache_stats.Bisram_explore.Cache.st_quarantined
    | None -> 0
  in
  rm_rf_cache dir;
  J.Obj
    [ ("entries_corrupted", J.Int entries)
    ; ("entries_quarantined", J.Int quarantined)
    ; ("warm_seconds", J.Float warm_s)
    ; ("heal_seconds", J.Float heal_s)
    ; ("heal_over_warm", J.Float (heal_s /. warm_s))
    ]

let resilience () =
  J.Obj
    [ ("checkpoint", checkpoint_overhead ())
    ; ("cache_self_heal", self_heal_cost ())
    ]

(* ------------------------------------------------------------------ *)
(* --smoke: exercise the exporters end to end (write, re-read, parse,
   check required keys) so `make bench-smoke` catches exporter bit-rot *)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let smoke_exporters () =
  Obs.set_enabled true;
  Obs.reset ();
  let cfg =
    C.make_config ~mode:(C.Uniform 2) ~trials:5 ~seed:7 ~shrink:false ()
  in
  ignore (C.run ~jobs:1 cfg);
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  Obs.reset ();
  let check label doc required_key =
    let path = Filename.temp_file "bisram-bench-smoke" ".json" in
    let oc = open_out path in
    output_string oc (J.to_pretty_string doc);
    close_out oc;
    let contents = read_file path in
    Sys.remove path;
    match J.of_string contents with
    | Error e ->
        Printf.eprintf "bench_json: %s exporter wrote unparseable JSON: %s\n"
          label e;
        exit 1
    | Ok j ->
        if J.member required_key j = None then begin
          Printf.eprintf "bench_json: %s exporter output lacks %S\n" label
            required_key;
          exit 1
        end
  in
  check "trace" (Export.chrome_trace_json snap) "traceEvents";
  check "metrics" (Export.metrics_json snap) "counters";
  prerr_endline "bench_json: exporter smoke OK (trace + metrics parsed back)"

(* ------------------------------------------------------------------ *)
(* BENCH_history.jsonl: one compact line per baseline regeneration —
   the trajectory file that lets a later PR see throughput drift at a
   glance without diffing full baselines.  Only full (non-smoke,
   non-quick) runs append; their numbers are the only trustworthy
   ones. *)

let jget k j = Option.value ~default:J.Null (J.member k j)
let jlist = function J.List l -> l | _ -> []

let history_line doc =
  let jobs1_tps =
    match jlist (jget "runs" (jget "campaign" doc)) with
    | first :: _ -> jget "trials_per_sec" first
    | [] -> J.Null
  in
  let lane62_speedup =
    Option.value ~default:J.Null
      (List.find_map
         (fun r ->
           match J.member "lanes" r with
           | Some (J.Int 62) -> J.member "speedup_vs_scalar" r
           | _ -> None)
         (jlist (jget "runs" (jget "lanes" doc))))
  in
  (* the lowest density is the last one benched — the headline row *)
  let lowest =
    match List.rev (jlist (jget "densities" (jget "estimator" doc))) with
    | d :: _ -> d
    | [] -> J.Null
  in
  let strategy_seconds name =
    Option.value ~default:J.Null
      (List.find_map
         (fun r ->
           match J.member "strategy" r with
           | Some (J.String s) when String.equal s name -> J.member "seconds" r
           | _ -> None)
         (jlist (jget "rows" lowest)))
  in
  let bira_allocs_per_sec name =
    Option.value ~default:J.Null
      (List.find_map
         (fun r ->
           match J.member "allocator" r with
           | Some (J.String s) when String.equal s name ->
               J.member "allocations_per_sec" r
           | _ -> None)
         (jlist (jget "allocators" (jget "bira" doc))))
  in
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let utc =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  J.Obj
    [ ("schema", J.String "bisram-bench-history/1")
    ; ("utc", J.String utc)
    ; ("bench_schema", jget "schema" doc)
    ; ("campaign_trials_per_sec_jobs1", jobs1_tps)
    ; ("lanes62_speedup", lane62_speedup)
    ; ("estimator_lambda", jget "lambda" lowest)
    ; ("estimator_seconds_to_ci_naive", strategy_seconds "naive")
    ; ("estimator_seconds_to_ci_stratified", strategy_seconds "stratified")
    ; ("estimator_seconds_to_ci_importance", strategy_seconds "importance")
    ; ("bira_greedy_allocs_per_sec", bira_allocs_per_sec "bira-greedy")
    ; ("bira_bnb_allocs_per_sec", bira_allocs_per_sec "bira-bnb")
    ]

let append_history ~path doc =
  (* History.append is skip-and-warn over whatever is already in the
     file and dedupes on (utc, bench_schema), so a re-run bench or a
     damaged tracked file never compounds the damage *)
  let status, warnings = Bisram_obs.History.append ~path (history_line doc) in
  List.iter (Printf.eprintf "bench_json: %s\n") warnings;
  match status with
  | `Appended -> Printf.printf "appended %s\n" path
  | `Duplicate ->
      Printf.printf "skipped %s: identical (utc, schema) record present\n" path
  | `Error e -> Printf.eprintf "bench_json: cannot append %s: %s\n" path e

(* ------------------------------------------------------------------ *)

let () =
  let out = ref "BENCH_campaign.json" in
  let out_set = ref false in
  let trials = ref 200 in
  let trials_set = ref false in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest ->
        out := path;
        out_set := true;
        parse rest
    | "--trials" :: n :: rest ->
        trials := int_of_string n;
        trials_set := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | a :: _ ->
        Printf.eprintf "bench_json: unknown argument %S\n" a;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke then begin
    if not !trials_set then trials := 20;
    if not !out_set then begin
      Printf.eprintf
        "bench_json: --smoke numbers are noise; pass -o to write them \
         somewhere other than the committed baseline\n";
      exit 1
    end
  end;
  (* --quick times only the regression-gated sections (campaign +
     lanes) with single-rep best-of; good enough for bench-check's
     tolerance band but not for the committed baseline *)
  if !quick && not !out_set then begin
    Printf.eprintf
      "bench_json: --quick skips sections and single-samples timings; pass \
       -o to write somewhere other than the committed baseline\n";
    exit 1
  end;
  if !smoke then smoke_exporters ();
  let jobs_levels =
    if !quick then [ 1 ] else if !smoke then [ 1; 2 ] else [ 1; 2; 4 ]
  in
  let campaign = campaign_runs ~trials:!trials ~jobs_levels in
  let lanes = lane_runs ~trials:248 in
  let full name f = if !quick then (name, J.Null) else (name, f ()) in
  let estimator = if !quick then J.Null else estimator_runs () in
  let kernels, derived =
    if !quick then (J.Null, J.Null)
    else
      let k, d = kernels () in
      (k, d)
  in
  let doc =
    J.Obj
      [ ("schema", J.String "bisram-bench/8")
        (* cores mirrors recommended_jobs (Domain.recommended_domain_count):
           the exact gate behind the jobs_exceed_cores skips above, recorded
           so a skip is auditable from the JSON alone *)
      ; ( "machine"
        , J.Obj
            [ ("cores", J.Int (Pool.recommended_jobs ()))
            ; ("recommended_jobs", J.Int (Pool.recommended_jobs ()))
            ; ("ocaml", J.String Sys.ocaml_version)
            ; ("word_size", J.Int Sys.word_size)
            ] )
      ; ("smoke", J.Bool !smoke)
      ; ("quick", J.Bool !quick)
      ; ("campaign", campaign)
      ; ("lanes", lanes)
      ; ("estimator", estimator)
      ; full "explore" explore_sweep
      ; ("kernels", kernels)
      ; ("derived", derived)
      ; full "bira" bira_section
      ; full "telemetry" telemetry_overhead
      ; full "model_hits" model_hit_ratios
      ; full "resilience" resilience
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_pretty_string doc);
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  if (not !smoke) && not !quick then
    append_history
      ~path:(Filename.concat (Filename.dirname !out) "BENCH_history.jsonl")
      doc
