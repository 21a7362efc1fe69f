(* Tests for the observability registry: merge determinism across job
   counts, histogram bucketing, span recording, one shard per domain
   shared by spans and events, one reset for every channel, exporter
   well-formedness, the JSON parser, and the invariant that telemetry
   never changes campaign report bytes. *)

module Obs = Bisram_obs.Obs
module Export = Bisram_obs.Export
module Json = Bisram_obs.Json
module Pool = Bisram_parallel.Pool
module C = Bisram_campaign.Campaign

(* Every test leaves the registry off and empty, so tests are
   independent of execution order. *)
let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* registry *)

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  Obs.reset ();
  Obs.add "c" 3;
  Obs.observe "h" 9;
  Obs.span "s" (fun () -> ());
  let s = Obs.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length s.Obs.counters);
  Alcotest.(check int) "no hists" 0 (List.length s.Obs.hists);
  Alcotest.(check int) "no spans" 0 (List.length s.Obs.spans)

let test_counter_sums () =
  with_obs (fun () ->
      Obs.add "a" 2;
      Obs.incr "a";
      Obs.add "b" 10;
      let s = Obs.snapshot () in
      Alcotest.(check (list (pair string int)))
        "summed, sorted by name"
        [ ("a", 3); ("b", 10) ]
        s.Obs.counters)

let test_hist_buckets () =
  with_obs (fun () ->
      (* bucket k holds [2^k, 2^(k+1)); values <= 1 land in bucket 0 *)
      List.iter (Obs.observe "h") [ 0; 1; 2; 3; 4; 7; 8; 1024 ];
      let h = List.assoc "h" (Obs.snapshot ()).Obs.hists in
      Alcotest.(check int) "count" 8 h.Obs.count;
      Alcotest.(check int) "sum" 1049 h.Obs.sum;
      Alcotest.(check int) "min" 0 h.Obs.min;
      Alcotest.(check int) "max" 1024 h.Obs.max;
      Alcotest.(check (list (pair int int)))
        "bucket boundaries"
        [ (0, 2); (1, 2); (2, 2); (3, 1); (10, 1) ]
        h.Obs.buckets)

let test_span_records () =
  with_obs (fun () ->
      let r = Obs.span ~cat:"test" ~arg:("k", 7) "phase" (fun () -> 41 + 1) in
      Alcotest.(check int) "span returns thunk value" 42 r;
      (match (Obs.snapshot ()).Obs.spans with
      | [ ev ] ->
          Alcotest.(check string) "name" "phase" ev.Obs.name;
          Alcotest.(check string) "cat" "test" ev.Obs.cat;
          Alcotest.(check (option (pair string int))) "arg" (Some ("k", 7))
            ev.Obs.arg;
          Alcotest.(check bool) "duration non-negative" true
            (Int64.compare ev.Obs.dur_ns 0L >= 0)
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)))

let test_span_records_on_raise () =
  with_obs (fun () ->
      (match Obs.span "boom" (fun () -> failwith "x") with
      | () -> Alcotest.fail "expected the exception to propagate"
      | exception Failure _ -> ());
      Alcotest.(check int) "span recorded despite raise" 1
        (List.length (Obs.snapshot ()).Obs.spans))

(* telemetry and events both on, at the lowest event level *)
let with_all_channels f =
  Obs.set_event_level (Some Obs.Debug);
  Fun.protect
    ~finally:(fun () -> Obs.set_event_level None)
    (fun () -> with_obs f)

(* A domain that only emits registers a shard all the same, so the
   span and event numberings cannot drift apart: the event a domain
   emits carries the Chrome-trace tid of the spans it records. *)
let test_event_tid_is_span_tid () =
  with_all_channels (fun () ->
      Domain.join
        (Domain.spawn (fun () -> Obs.emit ~domain:"t" "emit-only" []));
      Domain.join
        (Domain.spawn (fun () ->
             Obs.span "both" (fun () -> Obs.emit ~domain:"t" "both" [])));
      let span =
        List.find
          (fun (sp : Obs.span_snapshot) -> sp.Obs.name = "both")
          (Obs.snapshot ()).Obs.spans
      in
      let evs = Obs.drain_events () in
      let tid_of name =
        (List.find (fun ev -> ev.Obs.ev_name = name) evs).Obs.ev_tid
      in
      Alcotest.(check int) "event tid = span tid" span.Obs.tid
        (tid_of "both");
      Alcotest.(check bool) "distinct domains, distinct tids" true
        (tid_of "emit-only" <> tid_of "both"))

let test_reset_clears_every_channel () =
  with_all_channels (fun () ->
      Obs.incr "c";
      Obs.observe "h" 3;
      Obs.span "s" ignore;
      Obs.emit ~domain:"t" "a" [];
      Obs.emit ~domain:"t" "b" [];
      Obs.reset ();
      let s = Obs.snapshot () in
      Alcotest.(check int) "no counters" 0 (List.length s.Obs.counters);
      Alcotest.(check int) "no hists" 0 (List.length s.Obs.hists);
      Alcotest.(check int) "no spans" 0 (List.length s.Obs.spans);
      Alcotest.(check int) "no events" 0 (List.length (Obs.drain_events ()));
      Obs.emit ~domain:"t" "after" [];
      match Obs.drain_events () with
      | [ ev ] -> Alcotest.(check int) "seq restarts at 0" 0 ev.Obs.ev_seq
      | evs ->
          Alcotest.fail
            (Printf.sprintf "expected 1 event, got %d" (List.length evs)))

(* ------------------------------------------------------------------ *)
(* merge determinism across job counts *)

(* Deterministic per-item recording fanned out over a pool must merge
   to the same counters and histograms at any jobs count: sums are
   order-independent and shards never share state. *)
let prop_merge_jobs_invariant =
  QCheck.Test.make
    ~name:"counters/histograms identical at jobs=1 and jobs=n" ~count:30
    QCheck.(pair (int_range 0 80) (int_range 2 5))
    (fun (n, jobs) ->
      let run jobs =
        Obs.set_enabled true;
        Obs.reset ();
        ignore
          (Pool.map_result ~jobs n (fun i ->
               Obs.add "items" 1;
               Obs.add "weight" (i * i);
               Obs.observe "value" ((i * 13 mod 97) + 1);
               i));
        let s = Obs.snapshot () in
        Obs.set_enabled false;
        Obs.reset ();
        (s.Obs.counters, s.Obs.hists)
      in
      run 1 = run jobs)

(* Whole-campaign determinism: everything except the pool's own
   scheduling counters (pool.workerN.*: how items landed on workers
   is timing-dependent) and the spans (wall-clock stamps) must be
   identical at any jobs count. *)
let test_campaign_telemetry_jobs_invariant () =
  let cfg =
    C.make_config ~mode:(C.Uniform 2) ~trials:12 ~seed:33 ~shrink:false ()
  in
  let run jobs =
    Obs.set_enabled true;
    Obs.reset ();
    ignore (C.run ~jobs cfg);
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    Obs.reset ();
    let deterministic (name, _) =
      not (String.length name >= 5 && String.sub name 0 5 = "pool.")
    in
    (List.filter deterministic s.Obs.counters, s.Obs.hists)
  in
  let c1, h1 = run 1 in
  let c2, h2 = run 3 in
  Alcotest.(check (list (pair string int)))
    "non-pool counters identical" c1 c2;
  Alcotest.(check bool) "histograms identical" true (h1 = h2);
  Alcotest.(check bool) "campaign.cycles histogram present" true
    (List.mem_assoc "campaign.cycles" h1)

(* ------------------------------------------------------------------ *)
(* telemetry never touches reports *)

let test_report_bytes_unchanged_by_telemetry () =
  let cfg = C.make_config ~mode:(C.Uniform 2) ~trials:10 ~seed:5 () in
  Obs.set_enabled false;
  Obs.reset ();
  let off = C.json_string (C.run cfg) in
  Obs.set_enabled true;
  Obs.reset ();
  let on = C.json_string (C.run cfg) in
  let on_jobs2 = C.json_string (C.run ~jobs:2 cfg) in
  Obs.set_enabled false;
  Obs.reset ();
  Alcotest.(check string) "bytes identical telemetry on/off" off on;
  Alcotest.(check string) "bytes identical telemetry on, jobs=2" off on_jobs2

(* ------------------------------------------------------------------ *)
(* exporters *)

let parse_ok label s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s did not parse: %s" label e

let test_exporters_parse () =
  with_obs (fun () ->
      let cfg =
        C.make_config ~mode:(C.Uniform 1) ~trials:3 ~seed:9 ~shrink:false ()
      in
      ignore (C.run cfg);
      let snap = Obs.snapshot () in
      let metrics = parse_ok "metrics" (Json.to_string (Export.metrics_json snap)) in
      (match Json.member "schema" metrics with
      | Some (Json.String "bisram-metrics/1") -> ()
      | _ -> Alcotest.fail "metrics schema missing or wrong");
      (match Json.member "counters" metrics with
      | Some (Json.Obj kvs) ->
          Alcotest.(check bool) "campaign.trials counted" true
            (List.assoc_opt "campaign.trials" kvs = Some (Json.Int 3))
      | _ -> Alcotest.fail "metrics counters missing");
      let trace =
        parse_ok "trace"
          (Json.to_pretty_string (Export.chrome_trace_json snap))
      in
      match Json.member "traceEvents" trace with
      | Some (Json.List evs) ->
          Alcotest.(check bool) "trace has events" true (evs <> []);
          let ts_nonneg ev =
            match Json.member "ts" ev with
            | Some (Json.Float f) -> f >= 0.
            | Some (Json.Int i) -> i >= 0
            | None -> true (* metadata events carry no ts *)
            | _ -> false
          in
          Alcotest.(check bool) "timestamps rebased to >= 0" true
            (List.for_all ts_nonneg evs);
          Alcotest.(check bool) "has a trial span" true
            (List.exists
               (fun ev ->
                 Json.member "name" ev = Some (Json.String "trial"))
               evs)
      | _ -> Alcotest.fail "traceEvents missing")

(* Every per-trial phase is a row of the stats table (a row's first
   token is its name): on a failing row-TLB run with shrinking on, and
   on a bira-bnb run, whose checking run is the [oracle] phase. *)
let test_stats_table_mentions_phases () =
  let check cfg needles =
    with_obs (fun () ->
        ignore (C.run cfg);
        let rows =
          Export.stats_table (Obs.snapshot ())
          |> String.split_on_char '\n'
          |> List.map (fun l -> List.hd (String.split_on_char ' ' l))
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "table has row %s" needle)
              true (List.mem needle rows))
          needles)
  in
  let phases = [ "trial"; "inject"; "march"; "escape-sweep" ] in
  check
    (C.make_config ~march:Bisram_bist.Algorithms.mats_plus
       ~mix:Bisram_faults.Injection.retention_only ~mode:(C.Uniform 1)
       ~trials:2 ~seed:4 ())
    (phases @ [ "repair"; "shrink"; "campaign.trials"; "campaign.cycles" ]);
  check
    (C.make_config
       ~org:(Bisram_sram.Org.make ~spares:4 ~spare_cols:2 ~words:64 ~bpw:8
               ~bpc:4 ())
       ~mode:(C.Poisson 3.0) ~repair:(C.Bira Bisram_bira.Bira.Exhaustive)
       ~trials:4 ~seed:4 ())
    (phases @ [ "oracle" ])

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("i", Json.Int (-42))
      ; ("f", Json.Float 1.5)
      ; ("s", Json.String "quote \" slash \\ tab \t unicode \xc3\xa9")
      ; ("b", Json.Bool true)
      ; ("n", Json.Null)
      ; ("l", Json.List [ Json.Int 1; Json.Obj [ ("x", Json.Int 2) ] ])
      ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok j -> Alcotest.(check bool) "round-trips" true (j = doc)
      | Error e -> Alcotest.failf "round-trip parse failed: %s" e)
    [ Json.to_string doc; Json.to_pretty_string doc ]

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [ ( "registry"
      , [ Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing
        ; Alcotest.test_case "counters sum" `Quick test_counter_sums
        ; Alcotest.test_case "histogram buckets" `Quick test_hist_buckets
        ; Alcotest.test_case "span records" `Quick test_span_records
        ; Alcotest.test_case "span records on raise" `Quick
            test_span_records_on_raise
        ; Alcotest.test_case "event tid is span tid" `Quick
            test_event_tid_is_span_tid
        ; Alcotest.test_case "reset clears every channel" `Quick
            test_reset_clears_every_channel
        ] )
    ; ( "determinism"
      , [ QCheck_alcotest.to_alcotest prop_merge_jobs_invariant
        ; Alcotest.test_case "campaign telemetry jobs-invariant" `Quick
            test_campaign_telemetry_jobs_invariant
        ; Alcotest.test_case "report bytes unchanged by telemetry" `Quick
            test_report_bytes_unchanged_by_telemetry
        ] )
    ; ( "exporters"
      , [ Alcotest.test_case "metrics and trace parse" `Quick
            test_exporters_parse
        ; Alcotest.test_case "stats table mentions phases" `Quick
            test_stats_table_mentions_phases
        ] )
    ; ( "json"
      , [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip
        ; Alcotest.test_case "rejects malformed" `Quick
            test_json_rejects_malformed
        ] )
    ]
