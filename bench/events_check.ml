(* Structural validator for the observability side channels, used by
   `make events-smoke`: strict-parses every line of a JSONL event log
   produced by `bisramgen campaign --events` through the same parser
   the library exports (so schema drift between writer and reader is
   impossible to miss), checks the run lifecycle invariants, and
   optionally validates a --status-file snapshot.  Exit 0 on success,
   1 with a message on the first violation. *)

module J = Bisram_obs.Json
module Obs = Bisram_obs.Obs
module Export = Bisram_obs.Export

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("events_check: " ^ m); exit 1) fmt

let read_file path =
  match open_in path with
  | exception Sys_error e -> fail "cannot open %s: %s" path e
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

(* ------------------------------------------------------------------ *)

let check_events path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "%s has no events" path;
  let parsed =
    List.mapi
      (fun i line ->
        match Export.parse_event_line line with
        | Ok ev -> ev
        | Error e -> fail "%s:%d: %s" path (i + 1) e)
      lines
  in
  (* every campaign run emits exactly one lifecycle pair, adaptive ones
     included; a log with fewer is a truncated capture, one with more a
     mis-merged one or a campaign split into several runs *)
  List.iter
    (fun name ->
      let n =
        List.length
          (List.filter
             (fun ev ->
               String.equal ev.Obs.ev_domain "campaign"
               && String.equal ev.Obs.ev_name name)
             parsed)
      in
      if n <> 1 then
        fail "%s has %d campaign %s events, expected exactly one" path n name)
    [ "run.start"; "run.end" ];
  (* drain sorts by (ts_ns, tid, seq); a written log must still be in
     that order or the writer regressed *)
  let ordered =
    let rec ok = function
      | a :: (b :: _ as rest) ->
          let c = Int64.compare a.Obs.ev_ts_ns b.Obs.ev_ts_ns in
          (c < 0
          || (c = 0
             && (a.Obs.ev_tid < b.Obs.ev_tid
                || (a.Obs.ev_tid = b.Obs.ev_tid
                   && a.Obs.ev_seq <= b.Obs.ev_seq))))
          && ok rest
      | _ -> true
    in
    ok parsed
  in
  if not ordered then fail "%s events are not in (ts_ns, tid, seq) order" path;
  Printf.printf "events_check: %s OK (%d events)\n" path (List.length parsed)

(* ------------------------------------------------------------------ *)

let check_status path =
  let j =
    match J.of_string (read_file path) with
    | Ok j -> j
    | Error e -> fail "status file %s is not valid JSON: %s" path e
  in
  (match J.member "schema" j with
  | Some (J.String "bisram-progress/1") -> ()
  | Some (J.String s) ->
      fail "status schema is %S, expected \"bisram-progress/1\"" s
  | _ -> fail "status file %s lacks a schema string" path);
  let require_int key =
    match J.member key j with
    | Some (J.Int _) -> ()
    | Some _ -> fail "status %S is not an integer" key
    | None -> fail "status file %s lacks %S" path key
  in
  List.iter require_int
    [ "done"; "escapes"; "divergences"; "tool_errors"; "clean" ];
  (match J.member "finished" j with
  | Some (J.Bool true) -> ()
  | Some (J.Bool false) ->
      fail "status file %s is not final (finished = false after the run)" path
  | _ -> fail "status file %s lacks a boolean \"finished\"" path);
  Printf.printf "events_check: %s OK\n" path

(* ------------------------------------------------------------------ *)

let () =
  let events = ref None and status = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--events" :: path :: rest ->
        events := Some path;
        parse_args rest
    | "--status" :: path :: rest ->
        status := Some path;
        parse_args rest
    | a :: _ ->
        fail "unknown argument %S (usage: events_check --events FILE --status FILE)"
          a
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !events = None && !status = None then
    fail "nothing to check (usage: events_check --events FILE --status FILE)";
  Option.iter check_events !events;
  Option.iter check_status !status
