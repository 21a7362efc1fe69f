(* Structural validator for the telemetry exporters, used by
   `make trace-smoke`: parses a Chrome trace file and a metrics file
   produced by `bisramgen campaign --trace/--metrics` and checks the
   invariants every downstream consumer (Perfetto, the bench harness,
   ad-hoc jq) relies on.  Exit 0 on success, 1 with a message on the
   first violation. *)

module J = Bisram_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("trace_check: " ^ m); exit 1) fmt

let read_file path =
  match open_in path with
  | exception Sys_error e -> fail "cannot open %s: %s" path e
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

let parse ~what path =
  match J.of_string (read_file path) with
  | Ok j -> j
  | Error e -> fail "%s file %s is not valid JSON: %s" what path e

let member_exn ~what key j =
  match J.member key j with
  | Some v -> v
  | None -> fail "%s lacks required key %S" what key

(* ------------------------------------------------------------------ *)

let check_trace path =
  let j = parse ~what:"trace" path in
  let events =
    match member_exn ~what:"trace" "traceEvents" j with
    | J.List l -> l
    | _ -> fail "traceEvents is not an array"
  in
  if events = [] then fail "traceEvents is empty";
  let saw_trial = ref false in
  List.iteri
    (fun i ev ->
      let get key = member_exn ~what:(Printf.sprintf "traceEvents[%d]" i) key ev in
      let name =
        match get "name" with
        | J.String s -> s
        | _ -> fail "traceEvents[%d].name is not a string" i
      in
      let ph =
        match get "ph" with
        | J.String s -> s
        | _ -> fail "traceEvents[%d].ph is not a string" i
      in
      (match get "pid" with
      | J.Int _ -> ()
      | _ -> fail "traceEvents[%d].pid is not an integer" i);
      (match get "tid" with
      | J.Int _ -> ()
      | _ -> fail "traceEvents[%d].tid is not an integer" i);
      match ph with
      | "X" ->
          (match get "ts" with
          | J.Int _ | J.Float _ -> ()
          | _ -> fail "traceEvents[%d].ts is not a number" i);
          (match get "dur" with
          | J.Int _ | J.Float _ -> ()
          | _ -> fail "traceEvents[%d].dur is not a number" i);
          (match member_exn ~what:"trace" "cat" ev with
          | J.String "campaign" when name = "trial" -> saw_trial := true
          | _ -> ())
      | "M" -> ()
      | other -> fail "traceEvents[%d].ph is %S (expected \"X\" or \"M\")" i other)
    events;
  if not !saw_trial then
    fail "trace has no complete event named \"trial\" in category \"campaign\"";
  Printf.printf "trace_check: %s OK (%d events)\n" path (List.length events)

(* ------------------------------------------------------------------ *)

let check_metrics path =
  let j = parse ~what:"metrics" path in
  (match member_exn ~what:"metrics" "schema" j with
  | J.String "bisram-metrics/1" -> ()
  | J.String s -> fail "metrics schema is %S, expected \"bisram-metrics/1\"" s
  | _ -> fail "metrics schema is not a string");
  let counters = member_exn ~what:"metrics" "counters" j in
  let histograms = member_exn ~what:"metrics" "histograms" j in
  let require_counter name =
    match J.member name counters with
    | Some (J.Int _) -> ()
    | Some _ -> fail "counter %S is not an integer" name
    | None -> fail "metrics lack counter %S" name
  in
  (* always present in any campaign run: trials always tick, every
     model flushes its access-regime counters (zero or not), and worker
     0 (the calling domain) always reports pool utilization *)
  require_counter "campaign.trials";
  require_counter "model.fast_reads";
  require_counter "model.armed_packed_ops";
  require_counter "pool.worker0.busy_ns";
  (match J.member "campaign.cycles" histograms with
  | Some (J.Obj _) -> ()
  | Some _ -> fail "histogram campaign.cycles is not an object"
  | None -> fail "metrics lack histogram \"campaign.cycles\"");
  Printf.printf "trace_check: %s OK\n" path

(* ------------------------------------------------------------------ *)

let () =
  let trace = ref None and metrics = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse_args rest
    | "--metrics" :: path :: rest ->
        metrics := Some path;
        parse_args rest
    | a :: _ -> fail "unknown argument %S (usage: trace_check --trace FILE --metrics FILE)" a
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !trace = None && !metrics = None then
    fail "nothing to check (usage: trace_check --trace FILE --metrics FILE)";
  Option.iter check_trace !trace;
  Option.iter check_metrics !metrics
