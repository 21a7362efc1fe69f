(* Tests for the design-space exploration engine (spec parsing, lattice
   expansion, cache + jobs determinism, report well-formedness, Pareto
   extraction). *)

module Spec = Bisram_explore.Spec
module Campaign = Bisram_campaign.Campaign
module Compiler = Bisram_core.Compiler
module Config = Bisram_core.Config
module Explore = Bisram_explore.Explore
module Pareto = Bisram_explore.Pareto
module Cache = Bisram_explore.Cache
module J = Bisram_obs.Json

(* small enough to compile its designs in well under a second: one
   organization at two spare levels, two defect means *)
let tiny_spec_text =
  "words = 64\n\
   bpw = 8\n\
   bpc = 4\n\
   spares = 0, 4\n\
   mean_defects = 1, 4\n\
   evaluators = area, yield, cost, reliability\n"

let tiny_spec () =
  match Spec.of_string tiny_spec_text with
  | Ok s -> s
  | Error e -> Alcotest.fail ("tiny spec rejected: " ^ e)

let temp_cache_dir () =
  let path = Filename.temp_file "bisram-test-explore" ".cache" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* spec parsing *)

let test_spec_parses () =
  let s = tiny_spec () in
  Alcotest.(check (list int)) "words" [ 64 ] s.Spec.words;
  Alcotest.(check (list int)) "spares" [ 0; 4 ] s.Spec.spares;
  Alcotest.(check (list string))
    "evaluators in fixed order"
    [ "area"; "yield"; "cost"; "reliability" ]
    s.Spec.evaluators;
  (* the key = value surface shared with Config_file *)
  List.iter
    (fun (text, words) ->
      match Spec.of_string text with
      | Ok s -> Alcotest.(check (list int)) text words s.Spec.words
      | Error e -> Alcotest.failf "%S rejected: %s" text e)
    [ ("WORDS = 1024", [ 1024 ]); ("words = 2048 # trailing comment", [ 2048 ]) ];
  match Spec.of_string "march = u(w0); u(r0)" with
  | Ok s ->
      Alcotest.(check int) "inline march" 2
        (Bisram_bist.March.ops_per_address s.Spec.march)
  | Error e -> Alcotest.failf "inline march rejected: %s" e

let test_spec_defaults () =
  match Spec.of_string "" with
  | Error e -> Alcotest.fail ("empty spec rejected: " ^ e)
  | Ok s ->
      Alcotest.(check (list int)) "fig4 spares" [ 0; 4; 8; 16 ] s.Spec.spares;
      Alcotest.(check bool) "campaign off by default" false
        (List.mem "campaign" s.Spec.evaluators)

let expect_error name text =
  match Spec.of_string text with
  | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")
  | Error _ -> ()

let test_spec_rejects () =
  expect_error "unknown key" "wordz = 64\n";
  expect_error "unknown evaluator" "evaluators = area, vibes\n";
  expect_error "bad int" "words = sixty-four\n";
  expect_error "negative mean" "mean_defects = -1\n";
  expect_error "zero alpha" "alpha = 0\n";
  expect_error "non-finite" "alpha = inf\n";
  expect_error "missing equals" "words 64\n";
  expect_error "empty value" "words =\n";
  expect_error "campaign without trials" "evaluators = campaign\n";
  expect_error "unknown process" "process = unobtainium\n"

let test_spec_repair_names () =
  List.iter
    (fun r ->
      let name = Campaign.repair_name r in
      match Spec.of_string ("campaign_trials = 5\nrepair = " ^ name) with
      | Error e -> Alcotest.failf "repair %s rejected: %s" name e
      | Ok s ->
          Alcotest.(check string) "repair kept" name s.Spec.repair;
          let points, _ = Spec.expand s in
          let key = Spec.cache_key s points.(0) ~evaluator:"campaign" in
          let suffix = "|r=" ^ name in
          Alcotest.(check bool)
            (name ^ " spelled in the campaign key")
            (name <> "row-tlb")
            (String.ends_with ~suffix key))
    Campaign.repairs;
  expect_error "unknown repair" "repair = frobnicate\n"

(* a 2D point is compiled with its spare columns: the area evaluator
   reports what Compiler.compile gives for the same organization *)
let test_spare_cols_area () =
  match
    Spec.of_string
      "words = 64\nbpw = 8\nbpc = 4\nspares = 4\nspare_cols = 0, 2\n\
       mean_defects = 1\nevaluators = area\n"
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let r = Explore.run ~jobs:1 s in
      let module_mm2 i =
        match List.assoc "area" r.Explore.evals.(i) with
        | J.Obj fields -> (
            match List.assoc "module_mm2" fields with
            | J.Float v -> v
            | _ -> Alcotest.fail "module_mm2 is not a float")
        | _ -> Alcotest.fail "area is not an object"
      in
      let direct spare_cols =
        (Compiler.compile
           (Config.make ~process:s.Spec.process ~spare_cols ~words:64 ~bpw:8
              ~bpc:4 ~spares:4 ()))
          .Compiler.area
          .Compiler.module_mm2
      in
      Alcotest.(check (float 1e-12)) "row-only point" (direct 0) (module_mm2 0);
      Alcotest.(check (float 1e-12)) "2-column point" (direct 2) (module_mm2 1);
      Alcotest.(check bool) "spare columns cost area" true
        (module_mm2 1 > module_mm2 0)

(* a point whose evaluator raises fails the whole run with that
   exception at any jobs count.  Only the bpw-8 organization is
   simulable, so only its campaign evaluator reaches the repair name,
   which is bogus here (Spec.of_string would have rejected it). *)
let test_evaluator_raise_propagates () =
  match
    Spec.of_string
      "words = 64\nbpw = 8, 64\nbpc = 4\nspares = 4\nmean_defects = 1\n\
       campaign_trials = 2\nevaluators = campaign\n"
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let s = { s with Spec.repair = "bogus" } in
      Alcotest.(check int) "two points" 2 (Array.length (fst (Spec.expand s)));
      List.iter
        (fun jobs ->
          match Explore.run ~jobs s with
          | _ -> Alcotest.failf "jobs %d: expected the evaluator's raise" jobs
          | exception Invalid_argument msg ->
              Alcotest.(check string)
                (Printf.sprintf "jobs %d: the evaluator's exception" jobs)
                "Explore: unknown repair strategy bogus" msg)
        [ 1; 2 ]

let test_expand_counts () =
  let s = tiny_spec () in
  let points, skipped = Spec.expand s in
  Alcotest.(check int) "2 spares x 2 means" 4 (Array.length points);
  Alcotest.(check int) "nothing skipped" 0 skipped;
  (* an invalid organization (words not a multiple of bpc) is skipped,
     dropping every point it would have generated *)
  match
    Spec.of_string
      "words = 64, 66\n\
       bpw = 8\n\
       bpc = 4\n\
       spares = 0, 4\n\
       mean_defects = 1, 4\n\
       evaluators = area, yield\n"
  with
  | Error e -> Alcotest.fail e
  | Ok s2 ->
      let points2, skipped2 = Spec.expand s2 in
      Alcotest.(check int) "valid points survive" 4 (Array.length points2);
      Alcotest.(check int) "invalid combos counted" 2 skipped2

(* ------------------------------------------------------------------ *)
(* determinism: jobs count and cache temperature never change bytes *)

(* distinct cache keys of a sweep: what a cold run computes *)
let distinct_keys s =
  let points, _ = Spec.expand s in
  Array.to_list points
  |> List.concat_map (fun p ->
         List.map (fun ev -> Spec.cache_key s p ~evaluator:ev) s.Spec.evaluators)
  |> List.sort_uniq String.compare
  |> List.length

let test_determinism () =
  let s = tiny_spec () in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cold1 = Explore.run ~jobs:1 ~cache_dir:dir s in
      let cold2 = Explore.run ~jobs:2 ~cache_dir:dir s in
      let warm = Explore.run ~jobs:2 ~cache_dir:dir ~resume:true s in
      let b1 = Explore.json_string cold1 in
      Alcotest.(check string) "jobs 1 = jobs 2 (cold)" b1
        (Explore.json_string cold2);
      Alcotest.(check string) "cold = warm" b1 (Explore.json_string warm);
      Alcotest.(check int) "cold run never hits" 0
        cold1.Explore.cache_stats.Cache.st_hits;
      Alcotest.(check int) "jobs 1: misses + shared = evaluations"
        (Explore.evaluations cold1)
        (cold1.Explore.cache_stats.Cache.st_misses
        + cold1.Explore.cache_stats.Cache.st_shared);
      (* a key one worker is computing is waited for, never recomputed,
         so two workers count exactly what one does *)
      let distinct = distinct_keys s in
      Alcotest.(check int) "jobs 2: no hit when cold" 0
        cold2.Explore.cache_stats.Cache.st_hits;
      Alcotest.(check int) "jobs 2: each distinct key missed once" distinct
        cold2.Explore.cache_stats.Cache.st_misses;
      Alcotest.(check int) "jobs 2: every repeat shared"
        (Explore.evaluations cold2 - distinct)
        cold2.Explore.cache_stats.Cache.st_shared;
      Alcotest.(check int) "warm run always hits"
        (Explore.evaluations warm)
        warm.Explore.cache_stats.Cache.st_hits;
      Alcotest.(check int) "warm run never misses" 0
        warm.Explore.cache_stats.Cache.st_misses)

let test_diskless_run () =
  (* no cache_dir: each distinct key is a miss and its repeats are
     shared within the run; bytes still identical *)
  let s = tiny_spec () in
  let r = Explore.run ~jobs:1 s in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cached = Explore.run ~jobs:1 ~cache_dir:dir s in
      Alcotest.(check string) "diskless = cached bytes"
        (Explore.json_string r)
        (Explore.json_string cached);
      let distinct = distinct_keys s in
      Alcotest.(check bool) "the sweep repeats keys" true
        (distinct < Explore.evaluations r);
      Alcotest.(check int) "diskless misses each distinct key" distinct
        r.Explore.cache_stats.Cache.st_misses;
      Alcotest.(check int) "diskless shares the rest"
        (Explore.evaluations r - distinct)
        r.Explore.cache_stats.Cache.st_shared;
      Alcotest.(check int) "no hit without a disk" 0
        r.Explore.cache_stats.Cache.st_hits)

let spin_ns ns =
  let until = Int64.add (Bisram_parallel.Clock.now_ns ()) ns in
  while Bisram_parallel.Clock.now_ns () < until do
    Domain.cpu_relax ()
  done

(* Two workers ask for one key at once: [first] computes it and
   [second] arrives while it does.  [first]'s evaluator holds the key
   until [second] has asked for it, then returns [value] or raises.
   A waiter that is never woken fails the test after 10 s instead of
   hanging it. *)
let race_on_one_key ~first_raises value =
  let cache = Cache.create ~resume:false () in
  let computing = Atomic.make false and asked = Atomic.make false in
  let second_computed = Atomic.make 0 in
  let first =
    Domain.spawn (fun () ->
        match
          Cache.memo cache ~key:"k" (fun () ->
              Atomic.set computing true;
              while not (Atomic.get asked) do Domain.cpu_relax () done;
              (* give [second] time to reach the wait *)
              spin_ns 50_000_000L;
              if first_raises then failwith "injected" else value)
        with
        | v -> Ok v
        | exception Failure msg -> Error msg)
  in
  while not (Atomic.get computing) do Domain.cpu_relax () done;
  Atomic.set asked true;
  let second = Atomic.make None in
  let _waiter : unit Domain.t =
    Domain.spawn (fun () ->
        Atomic.set second
          (Some
             (Cache.memo cache ~key:"k" (fun () ->
                  Atomic.incr second_computed;
                  value))))
  in
  let deadline = Int64.add (Bisram_parallel.Clock.now_ns ()) 10_000_000_000L in
  let rec await () =
    match Atomic.get second with
    | Some v -> v
    | None ->
        if Bisram_parallel.Clock.now_ns () > deadline then
          Alcotest.fail "the waiter was never woken";
        spin_ns 1_000_000L;
        await ()
  in
  let second = await () in
  (Domain.join first, second, Atomic.get second_computed, Cache.stats cache)

let race_value = J.Obj [ ("x", J.Float 1.5); ("n", J.Int 3) ]

(* what one worker alone returns for the key *)
let one_worker_value () =
  Cache.memo (Cache.create ~resume:false ()) ~key:"k" (fun () -> race_value)

let test_inflight_key_shared () =
  let first, second, second_computed, st =
    race_on_one_key ~first_raises:false race_value
  in
  let expected = J.to_string (one_worker_value ()) in
  (match first with
  | Ok v -> Alcotest.(check string) "first's value" expected (J.to_string v)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "second's value" expected (J.to_string second);
  Alcotest.(check int) "second waited instead of computing" 0 second_computed;
  Alcotest.(check int) "one miss" 1 st.Cache.st_misses;
  Alcotest.(check int) "one shared" 1 st.Cache.st_shared

(* The computing worker raises while the other waits on its key: the
   raise reaches its own caller only, and the waiter computes the key
   itself and returns what one worker alone returns. *)
let test_inflight_raise_wakes_waiter () =
  let first, second, second_computed, st =
    race_on_one_key ~first_raises:true race_value
  in
  (match first with
  | Error msg -> Alcotest.(check string) "first raised" "injected" msg
  | Ok _ -> Alcotest.fail "first's evaluator should have raised");
  Alcotest.(check string) "waiter's value = one-worker value"
    (J.to_string (one_worker_value ()))
    (J.to_string second);
  Alcotest.(check int) "waiter computed the key" 1 second_computed;
  Alcotest.(check int) "both computations counted" 2 st.Cache.st_misses;
  Alcotest.(check int) "nothing shared" 0 st.Cache.st_shared

(* ------------------------------------------------------------------ *)
(* cache self-healing *)

module Chaos = Bisram_chaos.Chaos

let corrupt_every_entry dir =
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then begin
        let path = Filename.concat dir name in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc "{ not json")
      end)
    (Sys.readdir dir)

let count_suffix dir suffix =
  Array.fold_left
    (fun n name -> if Filename.check_suffix name suffix then n + 1 else n)
    0 (Sys.readdir dir)

let test_corrupt_entries_quarantined () =
  let s = tiny_spec () in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cold = Explore.run ~jobs:1 ~cache_dir:dir s in
      (* distinct entries < evaluations: evaluators whose keys ignore
         some axes (area does not depend on mean_defects) share files *)
      let entries = count_suffix dir ".json" in
      corrupt_every_entry dir;
      (* jobs:1 keeps the counters deterministic: with workers, two
         points racing on a shared corrupt entry may quarantine twice *)
      let healed = Explore.run ~jobs:1 ~cache_dir:dir ~resume:true s in
      Alcotest.(check string) "report byte-identical after healing"
        (Explore.json_string cold)
        (Explore.json_string healed);
      Alcotest.(check int) "every entry quarantined" entries
        healed.Explore.cache_stats.Cache.st_quarantined;
      (* a quarantined entry is recomputed and re-stored, so only the
         first lookup of each shared key misses *)
      Alcotest.(check int) "one miss per entry" entries
        healed.Explore.cache_stats.Cache.st_misses;
      Alcotest.(check int) "quarantine files on disk" entries
        (count_suffix dir ".quarantine");
      (* the healed entries are good again: a third run hits everything *)
      let warm = Explore.run ~jobs:1 ~cache_dir:dir ~resume:true s in
      Alcotest.(check int) "healed cache hits everything"
        (Explore.evaluations warm)
        warm.Explore.cache_stats.Cache.st_hits)

let test_orphan_tmp_reaped () =
  let s = tiny_spec () in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let orphan = Filename.concat dir ".cache-orphan.tmp" in
      Out_channel.with_open_bin orphan (fun oc ->
          Out_channel.output_string oc "torn write");
      let r = Explore.run ~jobs:1 ~cache_dir:dir s in
      Alcotest.(check int) "orphan counted" 1
        r.Explore.cache_stats.Cache.st_reaped_tmp;
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan))

let test_chaos_cache_corruption_heals () =
  (* the injector corrupts reads instead of the test mangling files:
     entries quarantine, re-evaluate, and the report stays identical *)
  let s = tiny_spec () in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cold = Explore.run ~jobs:1 ~cache_dir:dir s in
      Chaos.configure
        { Chaos.off with Chaos.seed = 3; Chaos.cache_read_corrupt = 0.5 };
      let healed =
        Fun.protect ~finally:Chaos.disarm (fun () ->
            Explore.run ~jobs:2 ~cache_dir:dir ~resume:true s)
      in
      Alcotest.(check string) "byte-identical under injected corruption"
        (Explore.json_string cold)
        (Explore.json_string healed);
      Alcotest.(check bool) "the injector actually fired" true
        (healed.Explore.cache_stats.Cache.st_quarantined > 0))

let test_chaos_write_failure_degrades () =
  (* every store fails (disk-full style): the sweep completes uncached
     with identical bytes and an empty cache directory *)
  let s = tiny_spec () in
  let baseline = Explore.json_string (Explore.run ~jobs:1 s) in
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Chaos.configure
        { Chaos.off with Chaos.seed = 5; Chaos.cache_write_fail = 1.0 };
      let r =
        Fun.protect ~finally:Chaos.disarm (fun () ->
            Explore.run ~jobs:1 ~cache_dir:dir s)
      in
      Alcotest.(check string) "byte-identical uncached" baseline
        (Explore.json_string r);
      (* a repeated key is served from the run's table, not stored
         again, so each distinct key fails its one store *)
      Alcotest.(check int) "every store degraded" (distinct_keys s)
        r.Explore.cache_stats.Cache.st_io_errors;
      Alcotest.(check int) "no entry written" 0 (count_suffix dir ".json"))

(* ------------------------------------------------------------------ *)
(* report shape *)

let test_report_roundtrip () =
  let r = Explore.run ~jobs:1 (tiny_spec ()) in
  let text = Explore.pretty_json_string r in
  match J.of_string text with
  | Error e -> Alcotest.fail ("report does not re-parse: " ^ e)
  | Ok doc ->
      let member name =
        match J.member name doc with
        | Some v -> v
        | None -> Alcotest.fail ("report lacks " ^ name)
      in
      (match member "schema" with
      | J.String s -> Alcotest.(check string) "schema" "bisram-explore/1" s
      | _ -> Alcotest.fail "schema not a string");
      (match member "points" with
      | J.List l -> Alcotest.(check int) "4 points" 4 (List.length l)
      | _ -> Alcotest.fail "points not a list");
      (match member "points_total" with
      | J.Int n -> Alcotest.(check int) "points_total" 4 n
      | _ -> Alcotest.fail "points_total not an int");
      (match member "pareto" with
      | J.List l ->
          Alcotest.(check bool) "pareto non-empty" true (List.length l > 0)
      | _ -> Alcotest.fail "pareto not a list");
      (match member "best_spares" with
      | J.List l ->
          (* one group per defect mean (spares is the ranked variable) *)
          Alcotest.(check int) "2 groups" 2 (List.length l)
      | _ -> Alcotest.fail "best_spares not a list");
      (* compact and pretty renderings carry the same document *)
      match J.of_string (Explore.json_string r) with
      | Ok compact ->
          Alcotest.(check bool) "pretty = compact document" true (compact = doc)
      | Error e -> Alcotest.fail ("compact form does not re-parse: " ^ e)

(* The smoke sweep's report bytes (the golden file is the CLI output of
   `explore --spec examples/explore_smoke.spec --jobs 1`, captured
   while MTTF was still computed by numeric integration).  It pins
   every evaluator, the Fig.-5 crossover ages included. *)
let test_golden_smoke_bytes () =
  let spec =
    match Spec.of_string (Fixture.read "../examples/explore_smoke.spec") with
    | Ok s -> s
    | Error e -> Alcotest.fail ("smoke spec rejected: " ^ e)
  in
  Alcotest.(check string)
    "explore_smoke report is byte-identical to the golden capture"
    (Fixture.read "golden_explore_smoke.json")
    (Explore.pretty_json_string (Explore.run ~jobs:1 spec))

(* ------------------------------------------------------------------ *)
(* pareto frontier *)

let xy_objectives =
  [ Pareto.objective ~name:"x" ~direction:Pareto.Minimize (fun (x, _) ->
        Some x)
  ; Pareto.objective ~name:"y" ~direction:Pareto.Maximize (fun (_, y) -> y)
  ]

let test_pareto_frontier () =
  (* (1,9) and (3,12) are efficient; (2,5) is dominated by (1,9);
     (4,1) by everything; the point missing y is excluded *)
  let items =
    [ (1.0, Some 9.0); (2.0, Some 5.0); (3.0, Some 12.0); (4.0, Some 1.0)
    ; (0.0, None)
    ]
  in
  let front = Pareto.frontier ~objectives:xy_objectives items in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "efficient set in input order"
    [ (1.0, 9.0); (3.0, 12.0) ]
    (List.map (fun (x, y) -> (x, Option.get y)) front)

let prop_pareto_nondominated =
  QCheck.Test.make ~name:"frontier members never dominate each other"
    ~count:100
    QCheck.(small_list (pair (float_range 0.0 10.0) (float_range 0.0 10.0)))
    (fun pts ->
      let items = List.map (fun (x, y) -> (x, Some y)) pts in
      let front = Pareto.frontier ~objectives:xy_objectives items in
      let score (x, y) = [| x; -.Option.get y |] in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> not (Pareto.dominates (score a) (score b)))
            front)
        front)

let () =
  Alcotest.run "explore"
    [ ( "spec",
        [ Alcotest.test_case "parses" `Quick test_spec_parses
        ; Alcotest.test_case "defaults" `Quick test_spec_defaults
        ; Alcotest.test_case "rejects" `Quick test_spec_rejects
        ; Alcotest.test_case "spec repair names" `Quick test_spec_repair_names
        ; Alcotest.test_case "spare columns compiled" `Quick
            test_spare_cols_area
        ; Alcotest.test_case "expand counts" `Quick test_expand_counts
        ] )
    ; ( "engine",
        [ Alcotest.test_case "jobs + cache determinism" `Quick
            test_determinism
        ; Alcotest.test_case "in-flight key shared" `Quick
            test_inflight_key_shared
        ; Alcotest.test_case "in-flight raise wakes the waiter" `Quick
            test_inflight_raise_wakes_waiter
        ; Alcotest.test_case "evaluator raise propagates" `Quick
            test_evaluator_raise_propagates
        ; Alcotest.test_case "diskless run" `Quick test_diskless_run
        ; Alcotest.test_case "report round-trip" `Quick test_report_roundtrip
        ; Alcotest.test_case "golden explore_smoke bytes" `Quick
            test_golden_smoke_bytes
        ] )
    ; ( "self-heal",
        [ Alcotest.test_case "corrupt entries quarantined" `Quick
            test_corrupt_entries_quarantined
        ; Alcotest.test_case "orphan tmp reaped" `Quick test_orphan_tmp_reaped
        ; Alcotest.test_case "injected corruption heals" `Quick
            test_chaos_cache_corruption_heals
        ; Alcotest.test_case "write failure degrades to uncached" `Quick
            test_chaos_write_failure_degrades
        ] )
    ; ( "pareto",
        [ Alcotest.test_case "frontier" `Quick test_pareto_frontier
        ; QCheck_alcotest.to_alcotest prop_pareto_nondominated
        ] )
    ]
