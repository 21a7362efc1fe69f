module J = Json

(* ------------------------------------------------------------------ *)
(* flat metrics JSON *)

let hist_json (h : Obs.hist_snapshot) =
  J.Obj
    [ ("count", J.Int h.Obs.count)
    ; ("sum", J.Int h.Obs.sum)
    ; ("min", J.Int h.Obs.min)
    ; ("max", J.Int h.Obs.max)
    ; ( "mean"
      , if h.Obs.count = 0 then J.Null
        else J.Float (float_of_int h.Obs.sum /. float_of_int h.Obs.count) )
    ; ( "buckets"
      , J.List
          (List.map
             (fun (k, c) ->
               J.Obj [ ("pow2", J.Int k); ("count", J.Int c) ])
             h.Obs.buckets) )
    ]

let metrics_json (s : Obs.snapshot) =
  J.Obj
    [ ("schema", J.String "bisram-metrics/1")
    ; ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.Obs.counters))
    ; ("histograms", J.Obj (List.map (fun (k, h) -> (k, hist_json h)) s.Obs.hists))
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (the "JSON Array Format" with complete
   events), loadable in Perfetto / chrome://tracing *)

let ns_to_us ns = Int64.to_float ns /. 1e3

let chrome_trace_json (s : Obs.snapshot) =
  (* rebase timestamps so the trace starts at ts=0: the monotonic
     origin is arbitrary, and small numbers keep the file diffable in
     everything but the duration digits *)
  let t0 =
    List.fold_left
      (fun acc (ev : Obs.span_snapshot) ->
        if Int64.compare ev.Obs.ts_ns acc < 0 then ev.Obs.ts_ns else acc)
      (match s.Obs.spans with [] -> 0L | ev :: _ -> ev.Obs.ts_ns)
      s.Obs.spans
  in
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun (ev : Obs.span_snapshot) -> ev.Obs.tid) s.Obs.spans)
  in
  let thread_meta tid =
    J.Obj
      [ ("name", J.String "thread_name")
      ; ("ph", J.String "M")
      ; ("pid", J.Int 0)
      ; ("tid", J.Int tid)
      ; ("args", J.Obj [ ("name", J.String (Printf.sprintf "domain-%d" tid)) ])
      ]
  in
  let span_event (ev : Obs.span_snapshot) =
    J.Obj
      ([ ("name", J.String ev.Obs.name)
       ; ("cat", J.String ev.Obs.cat)
       ; ("ph", J.String "X")
       ; ("pid", J.Int 0)
       ; ("tid", J.Int ev.Obs.tid)
       ; ("ts", J.Float (ns_to_us (Int64.sub ev.Obs.ts_ns t0)))
       ; ("dur", J.Float (ns_to_us ev.Obs.dur_ns))
       ]
      @
      match ev.Obs.arg with
      | None -> []
      | Some (k, v) -> [ ("args", J.Obj [ (k, J.Int v) ]) ])
  in
  J.Obj
    [ ( "traceEvents"
      , J.List (List.map thread_meta tids @ List.map span_event s.Obs.spans) )
    ; ("displayTimeUnit", J.String "ms")
    ]

(* ------------------------------------------------------------------ *)
(* human --stats table *)

type agg = {
  mutable a_count : int;
  mutable a_total : int64;
  mutable a_min : int64;
  mutable a_max : int64;
}

let stats_table (s : Obs.snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  (* spans aggregated by name, listed by descending total time *)
  let aggs : (string, agg) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : Obs.span_snapshot) ->
      let a =
        match Hashtbl.find_opt aggs ev.Obs.name with
        | Some a -> a
        | None ->
            let a =
              { a_count = 0; a_total = 0L; a_min = Int64.max_int; a_max = 0L }
            in
            Hashtbl.add aggs ev.Obs.name a;
            a
      in
      a.a_count <- a.a_count + 1;
      a.a_total <- Int64.add a.a_total ev.Obs.dur_ns;
      if Int64.compare ev.Obs.dur_ns a.a_min < 0 then a.a_min <- ev.Obs.dur_ns;
      if Int64.compare ev.Obs.dur_ns a.a_max > 0 then a.a_max <- ev.Obs.dur_ns)
    s.Obs.spans;
  let rows =
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) aggs []
    |> List.sort (fun (na, a) (nb, b) ->
           match Int64.compare b.a_total a.a_total with
           | 0 -> String.compare na nb
           | c -> c)
  in
  let ms ns = Int64.to_float ns /. 1e6 in
  let us ns = Int64.to_float ns /. 1e3 in
  if rows <> [] then begin
    line "%-40s %8s %12s %12s %12s %12s" "phase" "count" "total ms" "mean us"
      "min us" "max us";
    List.iter
      (fun (name, a) ->
        line "%-40s %8d %12.3f %12.1f %12.1f %12.1f" name a.a_count
          (ms a.a_total)
          (us a.a_total /. float_of_int a.a_count)
          (us a.a_min) (us a.a_max))
      rows
  end;
  if s.Obs.counters <> [] then begin
    if rows <> [] then line "";
    line "%-48s %16s" "counter" "value";
    List.iter (fun (name, v) -> line "%-48s %16d" name v) s.Obs.counters
  end;
  if s.Obs.hists <> [] then begin
    if rows <> [] || s.Obs.counters <> [] then line "";
    line "%-40s %8s %14s %10s %10s" "histogram" "count" "mean" "min" "max";
    List.iter
      (fun (name, (h : Obs.hist_snapshot)) ->
        if h.Obs.count > 0 then
          line "%-40s %8d %14.1f %10d %10d" name h.Obs.count
            (float_of_int h.Obs.sum /. float_of_int h.Obs.count)
            h.Obs.min h.Obs.max)
      s.Obs.hists
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* bisram-events/1 JSONL *)

let events_schema = "bisram-events/1"

let level_to_string = function
  | Obs.Debug -> "debug"
  | Obs.Info -> "info"
  | Obs.Warn -> "warn"

let level_of_string = function
  | "debug" -> Ok Obs.Debug
  | "info" -> Ok Obs.Info
  | "warn" -> Ok Obs.Warn
  | s -> Error (Printf.sprintf "unknown level %S" s)

let event_json (ev : Obs.event) =
  J.Obj
    [ ("schema", J.String events_schema)
    ; ("seq", J.Int ev.Obs.ev_seq)
    ; ("tid", J.Int ev.Obs.ev_tid)
    ; ("ts_ns", J.Int (Int64.to_int ev.Obs.ev_ts_ns))
    ; ("level", J.String (level_to_string ev.Obs.ev_level))
    ; ("domain", J.String ev.Obs.ev_domain)
    ; ("name", J.String ev.Obs.ev_name)
    ; ("fields", J.Obj ev.Obs.ev_fields)
    ]

let ( let* ) = Result.bind

let event_of_json j =
  match j with
  | J.Obj kvs ->
      let known =
        [ "schema"; "seq"; "tid"; "ts_ns"; "level"; "domain"; "name"; "fields" ]
      in
      let* () =
        match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
        | Some (k, _) -> Error (Printf.sprintf "unknown key %S" k)
        | None -> Ok ()
      in
      let field k what conv =
        match List.assoc_opt k kvs with
        | None -> Error (Printf.sprintf "missing key %S" k)
        | Some v ->
            Option.to_result (conv v)
              ~none:(Printf.sprintf "key %S is not %s" k what)
      in
      let int_field k =
        field k "an integer" (function J.Int i -> Some i | _ -> None)
      in
      let string_field k =
        field k "a string" (function J.String s -> Some s | _ -> None)
      in
      let* sch = string_field "schema" in
      let* () =
        if sch = events_schema then Ok ()
        else
          Error (Printf.sprintf "schema is %S, expected %S" sch events_schema)
      in
      let* seq = int_field "seq" in
      let* tid = int_field "tid" in
      let* ts = int_field "ts_ns" in
      let* lvl_s = string_field "level" in
      let* lvl = level_of_string lvl_s in
      let* domain = string_field "domain" in
      let* name = string_field "name" in
      let* fields =
        field "fields" "an object" (function J.Obj fs -> Some fs | _ -> None)
      in
      Ok
        { Obs.ev_seq = seq
        ; ev_tid = tid
        ; ev_ts_ns = Int64.of_int ts
        ; ev_level = lvl
        ; ev_domain = domain
        ; ev_name = name
        ; ev_fields = fields
        }
  | _ -> Error "event is not an object"

let parse_event_line line = Result.bind (J.of_string line) event_of_json

let write_events_jsonl oc evs =
  List.iter
    (fun ev ->
      output_string oc (J.to_string (event_json ev));
      output_char oc '\n')
    evs
