(* The BISRAMGEN benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --pin        (rewrite perfbench/reference.json)

   With --trace 0 it runs the workload end to end through
   [Campaign.run] / [Explore.run] for about S seconds and prints the
   end-to-end metrics; with --trace 1 it re-drives the same workload
   layer by layer (Redrive) and prints the per-layer metrics.  The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Run it from the
   repository root, normally through perfbench/run.sh. *)

module Campaign = Bisram_campaign.Campaign
module Explore = Bisram_explore.Explore
module Spec = Bisram_explore.Spec
module Clock = Bisram_parallel.Clock
module J = Bisram_obs.Json

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Operations attempted and failed: trials, points and reference
   checks; failures are crashed trials, incomplete or irreproducible
   runs, and outputs that disagree with the pinned or re-driven
   reference.  An oracle divergence is a finding the campaign reports
   (seed 103 has one), not a failure; the pins fix how many the pinned
   seeds yield. *)
type tally = { mutable attempted : int; mutable failed : int }

let attempt t ~n ~failed =
  t.attempted <- t.attempted + n;
  t.failed <- t.failed + failed

let work_dir = "perfbench/_work"
let cache_dir = Filename.concat work_dir "explore-cache"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A cold explore run on one domain: a fresh, empty cache directory
   every time. *)
let explore_cold spec =
  rm_rf cache_dir;
  let wall, r = Sample.timed (fun () -> Explore.run ~cache_dir spec) in
  rm_rf cache_dir;
  (wall, r)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Interference from other tenants of a shared host only ever slows a
   run down, by up to 1.7x for tens of seconds, often on one CPU only,
   so the fast end of each distribution is the part that repeats from
   run to run.  End-to-end rounds therefore alternate over CPUs 0 and 1,
   pinning the process to one per round where taskset can.  Traced runs
   are not pinned: their pool-efficiency probe needs every CPU. *)
let round_cpus ~traced =
  if traced then [||]
  else
    [ 0; 1 ]
    |> List.filter (fun c ->
           Sys.command (Printf.sprintf "taskset -c %d true > /dev/null 2>&1" c) = 0)
    |> Array.of_list

let pin_round cpus r =
  let n = Array.length cpus in
  if n > 0 then
    ignore
      (Sys.command
         (Printf.sprintf "taskset -cp %d %d > /dev/null 2>&1" cpus.(r mod n)
            (Unix.getpid ())))

(* The host probe: a fixed kernel of the benchmark's own (integer
   mixing, array updates, short-lived allocation; about 4 us), which no
   change to the library can speed up or slow down.  The shared host
   drifts between fast and slow phases that last minutes, and in ten
   runs of one workload the probe's time tracked the workload's to
   within a few percent.  [probe_ref_ns] is its time in a fast phase of
   a 2-vCPU Xeon host. *)
let probe () =
  let a = Array.make 256 0 and x = ref 0x2545F491 in
  for i = 0 to 1023 do
    x := ((!x * 0x5851F42D) + i) land 0x3FFFFFFF;
    let j = !x land 255 in
    a.(j) <- a.(j) + (!x lsr 7)
  done;
  List.fold_left (fun s (i, v) -> s + (i lxor v)) 0 (List.init 64 (fun i -> (i, a.(i))))

let probe_ref_ns = 4000.0

(* Per-call nanoseconds of [f], sampled in batches of >= 50 us so that
   clock resolution does not matter: [sample ()] adds one batch. *)
let sampler f =
  let batch n =
    let a = Clock.now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Sample.elapsed_ns a /. float_of_int n
  in
  let rec calibrate n =
    if n >= 1 lsl 20 || batch n *. float_of_int n >= 50_000.0 then n
    else calibrate (2 * n)
  in
  let per_batch = calibrate 1 and s = Sample.series () in
  (s, fun () -> Sample.add s (batch per_batch))

type timing = {
  best : float array;  (** each input's best seconds *)
  setup_ns : float;  (** set-up nanoseconds per call, 10th percentile *)
  slowdown : float;
      (** the host probe's 10th-percentile time over [probe_ref_ns]:
          above 1 in a slow phase of the host *)
}

(* [measure ~cpus ~inputs ~rounds ~setup run] times the inputs
   k = 0 .. inputs-1 ([run k] returns seconds) in [rounds] interleaved
   rounds and keeps each input's best time.  Both counts are fixed
   before timing starts (see [Workload.rounds]): rounds that depended
   on the host's speed would give a slow phase fewer samples and so a
   worse best time.  Before each run it times [setup] and the host
   probe in bursts of 2 ms. *)
let measure ~cpus ~inputs ~rounds ~setup run =
  let setups, sample_setup = sampler setup and probes, sample_probe = sampler probe in
  let burst () =
    let t0 = Clock.now () in
    while Clock.now () -. t0 < 0.002 do
      sample_setup ();
      sample_probe ()
    done
  in
  let best = Array.make inputs infinity in
  for r = 0 to rounds - 1 do
    pin_round cpus r;
    for k = 0 to inputs - 1 do
      burst ();
      best.(k) <- Float.min best.(k) (run k)
    done
  done;
  let p10 s = Sample.quantile (Sample.sorted s) 0.1 in
  { best; setup_ns = p10 setups; slowdown = p10 probes /. probe_ref_ns }

(* [work] per input over the inputs' mean best time.  Every commit
   times the same inputs, so a costly input weighs the same in each;
   and the mean over many inputs varies less from seed to seed than a
   median does, since window costs are lumpy (a window with a few
   shrinks costs several times one without). *)
let rate best work =
  work *. float_of_int (Array.length best) /. Array.fold_left ( +. ) 0.0 best

(* The end-to-end metrics of a timing, in seconds of the reference host:
   measured seconds divided by the host's slowdown.  A library change
   moves the workload and not the probe, so it shows in full; a slow
   phase of the host moves both, and cancels.  The measured values go
   to comment lines. *)
let host_scaled t ~trials ~points =
  let measured =
    [ m "trials_per_s" "1/s" (rate t.best trials)
    ; m "points_per_s" "1/s" (rate t.best points)
    ; m "setup_s" "s" (t.setup_ns /. 1e9) ]
  in
  List.iter (fun x -> Printf.printf "# measured %s %.6g %s\n" x.name x.value x.unit) measured;
  Printf.printf "# host slowdown %.4f\n" t.slowdown;
  List.map
    (fun x ->
      let v = if x.unit = "s" then x.value /. t.slowdown else x.value *. t.slowdown in
      { x with value = v })
    measured

let peak_rss_mb () =
  let from_status text =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                   float_of_int kb /. 1024.0)
           | _ -> None)
  in
  match from_status (read_file "/proc/self/status") with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* Check the outputs for the default seed, and for [seed] too when it
   is pinned (the held-back seed), against reference.json. *)
let check_reference tally ~workload ~seed compute =
  let doc = Reference.load () in
  let seeds =
    Workload.default_seed
    :: (if seed <> Workload.default_seed && Reference.find doc ~workload ~seed <> None
        then [ seed ] else [])
  in
  List.iter
    (fun s ->
      let ok =
        match Reference.find doc ~workload ~seed:s with
        | None -> false
        | Some pinned -> Reference.agrees (compute s) pinned
      in
      if not ok then prerr_endline (Printf.sprintf "reference mismatch: %s seed %d" workload s);
      attempt tally ~n:1 ~failed:(if ok then 0 else 1))
    seeds

(* ------------------------------------------------------------------ *)
(* end to end (--trace 0) *)

(* End-to-end runs use one domain; see BENCHMARK.md. *)
let campaign_run ?(jobs = 1) ?(offset = 0) cfg =
  Campaign.run ~jobs ~lanes:Workload.lanes ~offset cfg

(* The pinned output: the first [block] trials at the seed. *)
let campaign_reference (c : Workload.campaign) s =
  Reference.of_campaign
    (campaign_run (Workload.campaign_config c ~seed:s ~trials:c.block))

let campaign_end_to_end tally ~cpus (w : Workload.t) (c : Workload.campaign) ~seed
    ~seconds =
  check_reference tally ~workload:w.name ~seed (campaign_reference c);
  let cfg = Workload.campaign_config c ~seed ~trials:c.window in
  (* each window's later rounds must reproduce its first *)
  let first = Hashtbl.create 64 in
  let run k =
    let wall, r = Sample.timed (fun () -> campaign_run ~offset:(k * c.window) cfg) in
    let out = J.to_string (Reference.of_campaign r) in
    let same =
      match Hashtbl.find_opt first k with
      | None -> Hashtbl.add first k out; true
      | Some o -> o = out
    in
    let incomplete = r.Campaign.truncated || r.Campaign.trials_run <> c.window in
    attempt tally ~n:c.window
      ~failed:
        (List.length r.Campaign.tool_errors
        + if incomplete || not same then 1 else 0);
    wall
  in
  let t =
    measure ~cpus ~inputs:w.inputs ~rounds:(Workload.rounds w ~seconds) run
      ~setup:(fun () -> Workload.campaign_config c ~seed ~trials:c.window)
  in
  host_scaled t ~trials:(float_of_int c.window) ~points:1.0

let campaign_trials (r : Explore.result) =
  Array.fold_left
    (fun n evals ->
      match Option.bind (List.assoc_opt "campaign" evals) (J.member "trials") with
      | Some (J.Int t) -> n + t
      | _ -> n)
    0 r.Explore.evals

let explore_end_to_end tally ~cpus (w : Workload.t) ~spec_file ~seed ~seconds =
  let text = read_file spec_file in
  check_reference tally ~workload:w.name ~seed (fun s ->
      Reference.of_explore (snd (explore_cold (Workload.explore_spec text ~seed:s))));
  let spec = Workload.explore_spec text ~seed in
  (* every run explores the same spec: reports must agree byte for byte *)
  let first = ref None and points = ref 0 and trials = ref 0 in
  let run _ =
    let wall, r = explore_cold spec in
    let report = Explore.json_string r in
    let same =
      match !first with
      | None -> first := Some report; true
      | Some f -> f = report
    in
    points := Array.length r.Explore.points;
    trials := campaign_trials r;
    attempt tally ~n:!points ~failed:(if same then 0 else 1);
    wall
  in
  let t =
    measure ~cpus ~inputs:w.inputs ~rounds:(Workload.rounds w ~seconds) run
      ~setup:(fun () -> Spec.expand (Workload.explore_spec text ~seed))
  in
  host_scaled t ~trials:(float_of_int !trials) ~points:(float_of_int !points)

(* ------------------------------------------------------------------ *)
(* traced (--trace 1) *)

(* Layer timings, each reported as median, tail and sample count. *)
let timings =
  [ ("faults.inject", "us"); ("sram.model_setup", "us"); ("sram.lanes_arm", "us")
  ; ("bist.lane_pass", "us"); ("campaign.sweep_lanes", "us")
  ; ("bisr.controller", "us"); ("bisr.reference", "us"); ("bisr.iterated", "us")
  ; ("bira.fast", "us"); ("bira.reference", "us"); ("campaign.sweep", "us")
  ; ("campaign.shrink", "us"); ("reliability.mttf", "ms")
  ; ("reliability.crossover", "ms"); ("core.compile", "ms"); ("yield.eval", "ms")
  ; ("cost.eval", "ms"); ("explore.campaign", "ms") ]

let timing_metrics (tr : Sample.trace) =
  List.concat_map
    (fun (layer, unit) ->
      let scale = if unit = "us" then 1e-3 else 1e-6 in
      let s = Sample.layer tr layer in
      let base = layer ^ "_" ^ unit in
      [ m (base ^ ".p50") unit (Sample.median s *. scale)
      ; m (base ^ ".tail") unit (Sample.tail s *. scale)
      ; m (base ^ ".n") "count" (float_of_int s.Sample.len) ])
    timings

(* Deterministic counters over the first block; suffixed [.exact]
   because they must repeat bit for bit across runs of one seed.
   [minor_words] is the library's own allocation for that block. *)
let exact_metrics (c : Redrive.counters) ~minor_words =
  let per_trial x = if c.trials = 0 then 0.0 else float_of_int x /. float_of_int c.trials in
  let e name unit v = m (name ^ ".exact") unit v in
  [ e "sram.fast_ops_per_trial" "ops/trial" (per_trial c.fast_ops)
  ; e "sram.faulty_row_ops_per_trial" "ops/trial" (per_trial c.faulty_row_ops)
  ; e "sram.rows_cleared_per_trial" "rows/trial" (per_trial c.rows_cleared)
  ; e "campaign.lane_clean_frac" "frac"
      (if c.lanes_run = 0 then 0.0
       else float_of_int c.lanes_clean /. float_of_int c.lanes_run)
  ; e "bisr.rounds" "count" (float_of_int c.tlb_rounds)
  ; e "bist.controller_cycles" "count" (float_of_int c.cycles)
  ; e "bira.rounds" "count" (float_of_int c.bira_rounds)
  ; e "bira.spares_used" "count" (float_of_int c.spares_used)
  ; e "campaign.shrink_keep_calls" "count" (float_of_int c.keep_calls)
  ; e "campaign.minor_words_per_trial" "words/trial" (per_trial (truncate minor_words)) ]

(* [traced]/[untraced]: best seconds of one re-drive step with the
   trace on and off; [redrive]: traced re-drive seconds in all. *)
let shared_metrics tr ~efficiency ~traced ~untraced ~redrive =
  [ m "pool.efficiency" "frac" efficiency
  ; m "trace.overhead_frac" "frac" ((traced /. untraced) -. 1.0)
  ; m "trace.coverage_frac" "frac" (tr.Sample.attributed_ns /. (redrive *. 1e9)) ]

let best_of n f = List.fold_left Float.min infinity (List.init n (fun _ -> f ()))

let campaign_traced tally (c : Workload.campaign) ~seed ~seconds =
  let cfg = Workload.campaign_config c ~seed ~trials:c.block in
  let tr = Sample.trace () in
  let t0 = Clock.now () in
  (* at jobs 1 the pool runs every trial on this domain, so the minor
     words are the library's own and repeat exactly *)
  let words0 = Gc.minor_words () in
  let serial0, r0 = Sample.timed (fun () -> campaign_run cfg) in
  let minor_words = Gc.minor_words () -. words0 in
  let timing f () = fst (Sample.timed f) in
  let serial = Float.min serial0 (best_of 2 (timing (fun () -> campaign_run cfg))) in
  let wall =
    if c.pool_jobs = 1 then serial
    else best_of 3 (timing (fun () -> campaign_run ~jobs:c.pool_jobs cfg))
  in
  let redrive ?(tr = tr) ?(cnt = Redrive.counters ()) k =
    Sample.timed (fun () ->
        Redrive.campaign_window tr cnt cfg ~lanes:Workload.lanes ~offset:(k * c.block))
  in
  let cnt = Redrive.counters () in
  let first, items = redrive ~cnt 0 in
  let exact = exact_metrics cnt ~minor_words in
  let mismatch = if Redrive.matches_result r0 items then 0 else 1 in
  attempt tally ~n:c.block ~failed:(mismatch + Redrive.check_trials cfg items);
  (* the same block re-driven with the trace off, interleaved with two
     more traced re-drives: best of three each *)
  let traced = ref first and untraced = ref infinity and total = ref first in
  for i = 1 to 3 do
    untraced := Float.min !untraced (fst (redrive ~tr:(Sample.no_trace ()) 0));
    if i < 3 then begin
      let s = fst (redrive 0) in
      traced := Float.min !traced s;
      total := !total +. s
    end
  done;
  let k = ref 1 in
  while Clock.now () -. t0 < seconds do
    let s, items = redrive !k in
    attempt tally ~n:c.block ~failed:(Redrive.check_trials cfg items);
    total := !total +. s;
    incr k
  done;
  timing_metrics tr @ exact
  @ shared_metrics tr
      ~efficiency:(serial /. (float_of_int c.pool_jobs *. wall))
      ~traced:!traced ~untraced:!untraced ~redrive:!total

let explore_traced tally ~spec_file ~seed ~seconds =
  let spec = Workload.explore_spec (read_file spec_file) ~seed in
  let points, _ = Spec.expand spec in
  let tr = Sample.trace () in
  let t0 = Clock.now () in
  let _, r0 = explore_cold spec in
  let redrive tr =
    Sample.timed (fun () -> Array.map (fun p -> fst (Redrive.explore_point tr spec p)) points)
  in
  let traced = ref infinity and untraced = ref infinity and total = ref 0.0 in
  let k = ref 0 in
  while !k = 0 || Clock.now () -. t0 < seconds do
    let s, evals = redrive tr in
    traced := Float.min !traced s;
    total := !total +. s;
    untraced := Float.min !untraced (fst (redrive (Sample.no_trace ())));
    let bad = ref 0 in
    Array.iteri (fun i e -> bad := !bad + Redrive.check_point r0 i e) evals;
    attempt tally ~n:(Array.length points) ~failed:!bad;
    incr k
  done;
  (* explore runs on one domain: its pool efficiency is 1 by definition *)
  timing_metrics tr
  @ exact_metrics (Redrive.counters ()) ~minor_words:0.0
  @ shared_metrics tr ~efficiency:1.0 ~traced:!traced ~untraced:!untraced
      ~redrive:!total

(* ------------------------------------------------------------------ *)
(* stamp, pinning, output *)

let read_trim path = String.trim (read_file path)

(* A git ref's sha, loose or packed. *)
let ref_sha r =
  match read_trim (Filename.concat ".git" r) with
  | sha -> Some sha
  | exception Sys_error _ -> (
      match read_file ".git/packed-refs" with
      | exception Sys_error _ -> None
      | text ->
          String.split_on_char '\n' text
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' (String.trim line) with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None))

(* The code measured: a digest of the library and CLI sources, which
   also covers uncommitted edits and exported trees, preceded by the
   git commit when there is one. *)
let commit () =
  let git =
    match read_trim ".git/HEAD" with
    | exception Sys_error _ -> None
    | head when String.starts_with ~prefix:"ref: " head ->
        ref_sha (String.sub head 5 (String.length head - 5))
    | sha -> Some sha
  in
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun n ->
           let p = Filename.concat dir n in
           if Sys.is_directory p then files p else [ p ])
  in
  let parts =
    List.map (fun p -> p ^ " " ^ Digest.to_hex (Digest.file p)) (files "lib" @ files "bin")
  in
  let tree = "tree:" ^ Digest.to_hex (Digest.string (String.concat "\n" parts)) in
  match git with Some sha -> "git:" ^ sha ^ " " ^ tree | None -> tree

let stamp (w : Workload.t) ~cpus ~seed ~trace =
  J.to_string
    (J.Obj
       [ ("workload", J.String w.name); ("seed", J.Int seed)
       ; ("trace", J.Bool trace); ("nproc", J.Int Workload.nproc)
       ; ("jobs", J.Int 1)
       ; ("pool_jobs", J.Int (Workload.pool_jobs w))
       ; ("round_cpus", J.List (Array.to_list (Array.map (fun c -> J.Int c) cpus)))
       ; ("ocaml", J.String Sys.ocaml_version)
       ; ("commit", J.String (commit ())) ])

let pin () =
  let seeds = [ Workload.default_seed; Workload.held_back_seed ] in
  let entry (w : Workload.t) =
    let out s =
      match w.kind with
      | Workload.Campaign c -> campaign_reference c s
      | Workload.Explore spec_file ->
          Reference.of_explore
            (snd (explore_cold (Workload.explore_spec (read_file spec_file) ~seed:s)))
    in
    (w.name, J.Obj (List.map (fun s -> (string_of_int s, out s)) seeds))
  in
  let doc =
    J.Obj
      ([ ("default_seed", J.Int Workload.default_seed)
       ; ("held_back_seed", J.Int Workload.held_back_seed) ]
      @ List.map entry Workload.all)
  in
  Out_channel.with_open_bin Reference.file (fun oc ->
      output_string oc (J.to_pretty_string doc))

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result tally metrics =
  List.iter (fun x -> Printf.printf "# %-44s %s %s\n" x.name (number x.value) x.unit) metrics;
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref Workload.default_seed in
  let seconds = ref 10.0 and trace = ref 0 and pin_only = ref false in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 | --pin" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run")
    ; ("--seed", Arg.Set_int seed, "N input seed")
    ; ("--seconds", Arg.Set_float seconds, "S measuring time")
    ; ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run")
    ; ("--pin", Arg.Set pin_only, " rewrite the pinned reference outputs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (Sys.file_exists "perfbench") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  if !pin_only then pin ()
  else
    match Workload.find !workload with
    | None ->
        prerr_endline (Printf.sprintf "perfbench: unknown workload %S\n%s" !workload usage);
        exit 2
    | Some w ->
        let traced = !trace = 1 and seed = !seed and seconds = !seconds in
        let cpus = round_cpus ~traced in
        Printf.printf "# stamp %s\n%!" (stamp w ~cpus ~seed ~trace:traced);
        let tally = { attempted = 0; failed = 0 } in
        let metrics =
          match (w.kind, traced) with
          | Workload.Campaign c, false ->
              campaign_end_to_end tally ~cpus w c ~seed ~seconds
          | Workload.Explore spec_file, false ->
              explore_end_to_end tally ~cpus w ~spec_file ~seed ~seconds
          | Workload.Campaign c, true -> campaign_traced tally c ~seed ~seconds
          | Workload.Explore spec_file, true ->
              explore_traced tally ~spec_file ~seed ~seconds
        in
        let metrics =
          if traced then metrics else metrics @ [ m "peak_rss_mb" "MB" (peak_rss_mb ()) ]
        in
        print_result tally metrics
