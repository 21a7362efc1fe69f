(* Tests for the event channel of the observability registry and its
   consumers: strict
   schema round-trip, level filtering, drain ordering, the
   jobs-invariance of merged campaign event streams (payloads are pure
   functions of work items; only the ts/tid/seq envelope is
   scheduling-shaped), the invariant that reports stay byte-identical
   with events and progress reporting enabled at any jobs x lanes
   combination, and the hardened BENCH_history reader/appender. *)

module Obs = Bisram_obs.Obs
module Export = Bisram_obs.Export
module Progress = Bisram_obs.Progress
module History = Bisram_obs.History
module Json = Bisram_obs.Json
module C = Bisram_campaign.Campaign
module Chaos = Bisram_chaos.Chaos

(* Every test leaves the stream off and empty, so tests are
   independent of execution order. *)
let with_events ?(level = Obs.Info) f =
  Obs.set_event_level (Some level);
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_event_level None;
      Obs.reset ())
    f

let with_chaos cfg f =
  Chaos.configure cfg;
  Fun.protect ~finally:Chaos.disarm f

let temp_path suffix =
  let p = Filename.temp_file "bisram-test-events" suffix in
  Sys.remove p;
  p

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let cleanup path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* stream basics *)

let all_levels = [ Obs.Debug; Obs.Info; Obs.Warn ]

let test_levels () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        "level round-trips" true
        (Export.level_of_string (Export.level_to_string l) = Ok l))
    all_levels;
  Alcotest.(check bool)
    "bogus level rejected" true
    (Result.is_error (Export.level_of_string "fatal"))

let test_disabled_records_nothing () =
  Obs.set_event_level None;
  Obs.reset ();
  List.iter (fun level -> Obs.emit ~level ~domain:"t" "e" []) all_levels;
  Alcotest.(check int) "nothing buffered" 0
    (List.length (Obs.drain_events ()));
  List.iter
    (fun l ->
      Alcotest.(check bool)
        ("would_log off at " ^ Export.level_to_string l)
        false (Obs.would_log l))
    all_levels

let test_min_level_filters () =
  with_events ~level:Obs.Warn (fun () ->
      Alcotest.(check bool) "info below floor" false
        (Obs.would_log Obs.Info);
      Alcotest.(check bool) "warn at floor" true
        (Obs.would_log Obs.Warn);
      Obs.emit ~level:Obs.Debug ~domain:"t" "d" [];
      Obs.emit ~level:Obs.Info ~domain:"t" "i" [];
      Obs.emit ~level:Obs.Warn ~domain:"t" "w" [];
      match Obs.drain_events () with
      | [ ev ] ->
          Alcotest.(check string) "only the warn survives" "w"
            ev.Obs.ev_name
      | evs ->
          Alcotest.fail
            (Printf.sprintf "expected 1 event, got %d" (List.length evs)))

let test_drain_sorted_and_destructive () =
  with_events (fun () ->
      Obs.emit ~domain:"t" "a" [];
      Obs.emit ~domain:"t" "b" [];
      Obs.emit ~domain:"t" "c" [];
      let evs = Obs.drain_events () in
      Alcotest.(check (list string))
        "emission order preserved on one domain" [ "a"; "b"; "c" ]
        (List.map (fun e -> e.Obs.ev_name) evs);
      Alcotest.(check (list int))
        "sequence numbers ascend" [ 0; 1; 2 ]
        (List.map (fun e -> e.Obs.ev_seq) evs);
      Alcotest.(check int) "drain is destructive" 0
        (List.length (Obs.drain_events ())))

(* ------------------------------------------------------------------ *)
(* schema round-trip and strictness *)

let test_roundtrip () =
  with_events ~level:Obs.Debug (fun () ->
      Obs.emit ~level:Obs.Debug ~domain:"cache" "cache.hit"
        [ ("key", Json.String "abc"); ("n", Json.Int 3) ];
      Obs.emit ~domain:"campaign" "run.start"
        [ ("f", Json.Float 1.25)
        ; ("b", Json.Bool true)
        ; ("z", Json.Null)
        ; ("l", Json.List [ Json.Int 1; Json.Int 2 ])
        ; ("o", Json.Obj [ ("k", Json.String "v") ])
        ];
      Obs.emit ~level:Obs.Warn ~domain:"pool" "pool.retry" [];
      List.iter
        (fun ev ->
          let line = Json.to_string (Export.event_json ev) in
          match Export.parse_event_line line with
          | Ok ev' ->
              Alcotest.(check bool)
                ("round-trips: " ^ ev.Obs.ev_name)
                true (ev = ev')
          | Error e -> Alcotest.fail (ev.Obs.ev_name ^ ": " ^ e))
        (Obs.drain_events ()))

let valid_line =
  {|{"schema":"bisram-events/1","seq":0,"tid":0,"ts_ns":12,"level":"info","domain":"d","name":"n","fields":{"k":1}}|}

let test_parser_strict () =
  (match Export.parse_event_line valid_line with
  | Ok ev ->
      Alcotest.(check string) "name" "n" ev.Obs.ev_name;
      Alcotest.(check bool) "ts" true (ev.Obs.ev_ts_ns = 12L)
  | Error e -> Alcotest.fail ("valid line rejected: " ^ e));
  let rejected label line =
    Alcotest.(check bool) label true
      (Result.is_error (Export.parse_event_line line))
  in
  rejected "not json" "nonsense";
  rejected "wrong schema"
    {|{"schema":"bisram-events/9","seq":0,"tid":0,"ts_ns":12,"level":"info","domain":"d","name":"n","fields":{}}|};
  rejected "unknown key"
    {|{"schema":"bisram-events/1","seq":0,"tid":0,"ts_ns":12,"level":"info","domain":"d","name":"n","fields":{},"extra":1}|};
  rejected "missing name"
    {|{"schema":"bisram-events/1","seq":0,"tid":0,"ts_ns":12,"level":"info","domain":"d","fields":{}}|};
  rejected "bad level"
    {|{"schema":"bisram-events/1","seq":0,"tid":0,"ts_ns":12,"level":"fatal","domain":"d","name":"n","fields":{}}|};
  rejected "fields not an object"
    {|{"schema":"bisram-events/1","seq":0,"tid":0,"ts_ns":12,"level":"info","domain":"d","name":"n","fields":[]}|}

(* ------------------------------------------------------------------ *)
(* jobs-invariance of the merged campaign event stream *)

(* lanes fixed (unit boundaries depend on lanes, not jobs), chaos armed
   so the retry path emits: dropping the (ts_ns, tid, seq) envelope and
   the run.start event (the one event that names its execution
   environment) must leave the same multiset at any job count *)
let canonical_events () =
  Obs.drain_events ()
  |> List.filter (fun ev -> ev.Obs.ev_name <> "run.start")
  |> List.map (fun ev ->
         Json.to_string
           (Json.Obj
              [ ("level", Json.String (Export.level_to_string ev.Obs.ev_level))
              ; ("domain", Json.String ev.Obs.ev_domain)
              ; ("name", Json.String ev.Obs.ev_name)
              ; ("fields", Json.Obj ev.Obs.ev_fields)
              ]))
  |> List.sort compare

let test_campaign_events_jobs_invariant () =
  let cfg =
    C.make_config ~mode:(C.Uniform 2) ~trials:60 ~seed:7 ~shrink:false ()
  in
  let stream jobs =
    with_events (fun () ->
        ignore (C.run ~jobs ~lanes:4 cfg);
        canonical_events ())
  in
  with_chaos
    { Chaos.off with Chaos.seed = 11; job_fail = 0.4 }
    (fun () ->
      let j1 = stream 1 and j4 = stream 4 in
      Alcotest.(check bool)
        "stream is non-trivial (chaos + anomalies fired)" true
        (List.length j1 > 2);
      let mentions sub s =
        let n = String.length s and m = String.length sub in
        let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "chaos injections recorded" true
        (List.exists (mentions "chaos.inject") j1);
      Alcotest.(check (list string)) "jobs 1 = jobs 4" j1 j4)

(* ------------------------------------------------------------------ *)
(* reports byte-identical with events + progress on, any jobs x lanes *)

let test_report_identity_with_observability () =
  let cfg =
    C.make_config ~mode:(C.Uniform 2) ~trials:30 ~seed:11 ~shrink:false ()
  in
  let baseline = C.json_string (C.run ~jobs:1 ~lanes:1 cfg) in
  List.iter
    (fun (jobs, lanes) ->
      let status = temp_path ".status.json" in
      let observed =
        with_events ~level:Obs.Debug (fun () ->
            let reporter =
              Progress.create ~total:cfg.C.trials ~status_file:status
                ~min_interval_s:0.0 ()
            in
            let on_progress (p : C.progress) =
              Progress.update reporter ~done_:p.C.p_done
                ~escapes:p.C.p_escapes ~divergences:p.C.p_divergences
                ~tool_errors:p.C.p_tool_errors ~clean:p.C.p_clean
            in
            let r = C.run ~jobs ~lanes ~on_progress cfg in
            Progress.finish reporter;
            C.json_string r)
      in
      (* the status file caught at least the final forced render *)
      (match Json.of_string (String.trim (In_channel.with_open_text status In_channel.input_all)) with
      | Ok j ->
          Alcotest.(check bool)
            (Printf.sprintf "status finished (jobs %d lanes %d)" jobs lanes)
            true
            (Json.member "finished" j = Some (Json.Bool true))
      | Error e -> Alcotest.fail ("status file unparseable: " ^ e));
      cleanup status;
      Alcotest.(check string)
        (Printf.sprintf "report bytes (jobs %d lanes %d)" jobs lanes)
        baseline observed)
    [ (1, 1); (1, 62); (4, 1); (4, 62) ]

(* ------------------------------------------------------------------ *)
(* hardened history file *)

let test_history_missing_reads_empty () =
  let p = temp_path ".jsonl" in
  let records, warnings = History.read ~path:p in
  Alcotest.(check int) "no records" 0 (List.length records);
  Alcotest.(check int) "no warnings" 0 (List.length warnings)

let test_history_skips_malformed () =
  let p = temp_path ".jsonl" in
  write_file p
    ("{\"schema\":\"bisram-bench-history/1\",\"utc\":\"A\",\"bench_schema\":\"s\"}\n"
   ^ "<<<<<<< conflict marker\n" ^ "\n"
   ^ "{\"schema\":\"bisram-bench-history/1\",\"utc\":\"B\"\n"
   ^ "{\"schema\":\"bisram-bench-history/1\",\"utc\":\"C\",\"bench_schema\":\"s\"}\n"
    );
  let records, warnings = History.read ~path:p in
  cleanup p;
  Alcotest.(check int) "two well-formed records survive" 2
    (List.length records);
  Alcotest.(check int) "one warning per damaged line" 2
    (List.length warnings);
  List.iter
    (fun w ->
      Alcotest.(check bool) "warning names the file and says skipping" true
        (String.length w > 0
        && String.equal (String.sub w 0 (String.length p)) p))
    warnings

let record ~utc ~tps =
  Json.Obj
    [ ("schema", Json.String "bisram-bench-history/1")
    ; ("utc", Json.String utc)
    ; ("bench_schema", Json.String "bisram-bench/7")
    ; ("campaign_trials_per_sec_jobs1", Json.Float tps)
    ]

let test_history_append_dedups () =
  let p = temp_path ".jsonl" in
  let st1, _ = History.append ~path:p (record ~utc:"2026-01-01T00:00:00Z" ~tps:100.0) in
  Alcotest.(check bool) "first append lands" true (st1 = `Appended);
  (* same (utc, bench_schema) identity, different payload: a re-run
     bench must not double the line *)
  let st2, _ = History.append ~path:p (record ~utc:"2026-01-01T00:00:00Z" ~tps:999.0) in
  Alcotest.(check bool) "identical identity deduped" true (st2 = `Duplicate);
  let st3, _ = History.append ~path:p (record ~utc:"2026-01-02T00:00:00Z" ~tps:101.0) in
  Alcotest.(check bool) "new identity appends" true (st3 = `Appended);
  let records, warnings = History.read ~path:p in
  cleanup p;
  Alcotest.(check int) "two records on disk" 2 (List.length records);
  Alcotest.(check int) "no warnings" 0 (List.length warnings)

let test_history_append_survives_damage () =
  (* damaged lines in the existing file are warned about but never
     block a fresh append *)
  let p = temp_path ".jsonl" in
  write_file p "garbage line\n";
  let st, warnings =
    History.append ~path:p (record ~utc:"2026-03-01T00:00:00Z" ~tps:50.0)
  in
  let records, _ = History.read ~path:p in
  cleanup p;
  Alcotest.(check bool) "append lands past the damage" true (st = `Appended);
  Alcotest.(check int) "scan warned about the damage" 1 (List.length warnings);
  Alcotest.(check int) "the appended record reads back" 1 (List.length records)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "events"
    [ ( "stream"
      , [ Alcotest.test_case "level strings" `Quick test_levels
        ; Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing
        ; Alcotest.test_case "min level filters" `Quick test_min_level_filters
        ; Alcotest.test_case "drain sorted and destructive" `Quick
            test_drain_sorted_and_destructive
        ] )
    ; ( "schema"
      , [ Alcotest.test_case "round-trip" `Quick test_roundtrip
        ; Alcotest.test_case "strict parser" `Quick test_parser_strict
        ] )
    ; ( "determinism"
      , [ Alcotest.test_case "jobs-invariant stream" `Quick
            test_campaign_events_jobs_invariant
        ; Alcotest.test_case "report bytes with observability on" `Quick
            test_report_identity_with_observability
        ] )
    ; ( "history"
      , [ Alcotest.test_case "missing file reads empty" `Quick
            test_history_missing_reads_empty
        ; Alcotest.test_case "malformed lines skipped with warnings" `Quick
            test_history_skips_malformed
        ; Alcotest.test_case "append dedups on (utc, schema)" `Quick
            test_history_append_dedups
        ; Alcotest.test_case "append survives damaged lines" `Quick
            test_history_append_survives_damage
        ] )
    ]
