(* Bench trajectory page: render BENCH_history.jsonl — the one-line-
   per-baseline-regeneration trajectory file — into a static,
   self-contained HTML page with a sparkline and value table per
   metric, plus a latest-vs-baseline regression verdict.

   The verdict reuses bench_check's gate exactly (floor =
   baseline * (1 - tolerance), 35% by default, same two headline
   figures) so the page and the CI gate can never disagree about what
   counts as a regression.  --check additionally makes the exit status
   carry the verdict (1 on regression) so the renderer doubles as a
   trajectory-level CI gate; --advisory downgrades that to a warning
   for noisy shared boxes, mirroring bench_check.

   History lines are read through Bisram_obs.History: malformed lines
   (conflict markers, truncated appends) are skipped with a warning
   and rendered as a damage note on the page, never a crash. *)

module J = Bisram_obs.Json
module History = Bisram_obs.History

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let number = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let jstring = function Some (J.String s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* tracked metrics *)

type dir = Higher_better | Lower_better

type metric = {
  m_key : string;  (* field name in a history record *)
  m_label : string;
  m_unit : string;
  m_dir : dir;
  m_gated : bool;  (* compared against the committed baseline *)
}

let metrics =
  [ { m_key = "campaign_trials_per_sec_jobs1"
    ; m_label = "Campaign throughput, jobs = 1"
    ; m_unit = "trials/s"
    ; m_dir = Higher_better
    ; m_gated = true
    }
  ; { m_key = "lanes62_speedup"
    ; m_label = "Lane batching speedup, 62 lanes vs scalar"
    ; m_unit = "x"
    ; m_dir = Higher_better
    ; m_gated = true
    }
  ; { m_key = "estimator_seconds_to_ci_naive"
    ; m_label = "Estimator: seconds to target CI, naive sampling"
    ; m_unit = "s"
    ; m_dir = Lower_better
    ; m_gated = false
    }
  ; { m_key = "estimator_seconds_to_ci_stratified"
    ; m_label = "Estimator: seconds to target CI, stratified proposal"
    ; m_unit = "s"
    ; m_dir = Lower_better
    ; m_gated = false
    }
  ; { m_key = "estimator_seconds_to_ci_importance"
    ; m_label = "Estimator: seconds to target CI, importance sampling"
    ; m_unit = "s"
    ; m_dir = Lower_better
    ; m_gated = false
    }
  ]

(* (record index, value) series for one metric — records missing the
   field (older schemas) keep their x slot so trend lines stay aligned
   across metrics *)
let series records key =
  List.mapi (fun i r -> (i, number (J.member key r))) records
  |> List.filter_map (fun (i, v) ->
         match v with Some v -> Some (i, v) | None -> None)

(* ------------------------------------------------------------------ *)
(* baseline figures (same extraction as bench_check) *)

let baseline_tps j ~section ~key ~level =
  match J.member section j with
  | None -> None
  | Some s -> (
      match J.member "runs" s with
      | Some (J.List runs) ->
          List.find_map
            (fun r ->
              match number (J.member key r) with
              | Some l when int_of_float l = level ->
                  number (J.member "trials_per_sec" r)
              | _ -> None)
            runs
      | _ -> None)

let baseline_lane_speedup j =
  match J.member "lanes" j with
  | None -> None
  | Some s -> (
      match J.member "runs" s with
      | Some (J.List runs) ->
          List.find_map
            (fun r ->
              match J.member "lanes" r with
              | Some (J.Int 62) -> number (J.member "speedup_vs_scalar" r)
              | _ -> None)
            runs
      | _ -> None)

let baseline_value baseline key =
  match key with
  | "campaign_trials_per_sec_jobs1" ->
      Option.bind baseline (fun b ->
          baseline_tps b ~section:"campaign" ~key:"jobs" ~level:1)
  | "lanes62_speedup" -> Option.bind baseline baseline_lane_speedup
  | _ -> None

(* bench_check's gate, verbatim: a gated figure regresses when the
   fresh value falls below baseline * (1 - tolerance) *)
type verdict = Ok_within of float | Regressed of float | Ungated

let gate ~tolerance ~baseline ~latest =
  match (baseline, latest) with
  | Some b, Some c ->
      let floor = b *. (1.0 -. tolerance) in
      if c >= floor then Ok_within floor else Regressed floor
  | _ -> Ungated

(* ------------------------------------------------------------------ *)
(* HTML / SVG rendering *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fnum v =
  if Float.is_integer v && Float.abs v < 1e6 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

(* inline SVG sparkline over (index, value) points; the x axis is the
   record index so gaps from older schemas show as gaps, not kinks *)
let sparkline pts ~n =
  let w = 260.0 and h = 56.0 and pad = 6.0 in
  match pts with
  | [] -> "<span class=\"nodata\">no data</span>"
  | pts ->
      let vals = List.map snd pts in
      let lo = List.fold_left Float.min infinity vals in
      let hi = List.fold_left Float.max neg_infinity vals in
      let span = if hi -. lo > 0.0 then hi -. lo else 1.0 in
      let x i =
        if n <= 1 then w /. 2.0
        else pad +. (float_of_int i /. float_of_int (n - 1) *. (w -. (2.0 *. pad)))
      in
      let y v = h -. pad -. ((v -. lo) /. span *. (h -. (2.0 *. pad))) in
      let coords =
        String.concat " "
          (List.map
             (fun (i, v) -> Printf.sprintf "%.1f,%.1f" (x i) (y v))
             pts)
      in
      let last_i, last_v = List.nth pts (List.length pts - 1) in
      Printf.sprintf
        "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" \
         class=\"spark\"><polyline points=\"%s\" fill=\"none\" \
         stroke=\"#2b6cb0\" stroke-width=\"1.5\"/><circle cx=\"%.1f\" \
         cy=\"%.1f\" r=\"2.5\" fill=\"#2b6cb0\"/></svg>"
        w h w h coords (x last_i) (y last_v)

let style =
  {|body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:70em;
color:#1a202c;padding:0 1em}
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}
table{border-collapse:collapse;margin:0.5em 0}
td,th{border:1px solid #cbd5e0;padding:0.25em 0.6em;text-align:right}
th{background:#edf2f7;text-align:left}
td.utc,th.utc{text-align:left;font-family:ui-monospace,monospace;font-size:0.9em}
.metric{display:flex;gap:1.5em;align-items:center;border:1px solid #e2e8f0;
border-radius:6px;padding:0.7em 1em;margin:0.6em 0}
.metric .name{flex:1}
.metric .latest{font-size:1.2em;font-weight:600;min-width:8em;text-align:right}
.ok{color:#276749}.bad{color:#c53030;font-weight:700}
.badge{border-radius:4px;padding:0.1em 0.5em;font-size:0.85em}
.badge.ok{background:#c6f6d5}.badge.bad{background:#fed7d7}
.badge.none{background:#edf2f7;color:#4a5568}
.nodata{color:#a0aec0;font-style:italic}
.warn{background:#fffaf0;border:1px solid #ed8936;border-radius:6px;
padding:0.5em 1em;margin:1em 0}
footer{margin-top:3em;color:#718096;font-size:0.85em}|}

let render ~history_path ~baseline_path ~tolerance ~records ~warnings
    ~verdicts =
  let b = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let n = List.length records in
  let latest_utc =
    match List.rev records with
    | last :: _ -> Option.value ~default:"?" (jstring (J.member "utc" last))
    | [] -> "no records"
  in
  add "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n";
  add "<title>bisram bench trajectory</title>\n<style>%s</style></head>\n"
    style;
  add "<body>\n<h1>bisram bench trajectory</h1>\n";
  add
    "<p>%d full bench run(s) recorded in <code>%s</code>; latest %s.  Gated \
     figures are compared against <code>%s</code> with the bench_check \
     tolerance of %.0f%%.</p>\n"
    n (html_escape history_path) (html_escape latest_utc)
    (html_escape baseline_path) (tolerance *. 100.0);
  if warnings <> [] then begin
    add "<div class=\"warn\"><strong>history damage</strong> — %d line(s) \
         skipped:<ul>" (List.length warnings);
    List.iter (fun w -> add "<li><code>%s</code></li>" (html_escape w)) warnings;
    add "</ul></div>\n"
  end;
  add "<h2>Metrics</h2>\n";
  List.iter
    (fun m ->
      let pts = series records m.m_key in
      let latest = match List.rev pts with (_, v) :: _ -> Some v | [] -> None in
      let badge =
        match List.assoc_opt m.m_key verdicts with
        | Some (Ok_within floor) ->
            Printf.sprintf
              "<span class=\"badge ok\">ok (floor %s %s)</span>" (fnum floor)
              m.m_unit
        | Some (Regressed floor) ->
            Printf.sprintf
              "<span class=\"badge bad\">REGRESSED (floor %s %s)</span>"
              (fnum floor) m.m_unit
        | Some Ungated | None ->
            "<span class=\"badge none\">trend only</span>"
      in
      add
        "<div class=\"metric\"><div class=\"name\"><strong>%s</strong><br>%s \
         · %s</div>%s<div class=\"latest\">%s</div></div>\n"
        (html_escape m.m_label)
        (html_escape
           (match m.m_dir with
           | Higher_better -> "higher is better"
           | Lower_better -> "lower is better"))
        badge (sparkline pts ~n)
        (match latest with
        | Some v -> Printf.sprintf "%s %s" (fnum v) (html_escape m.m_unit)
        | None -> "<span class=\"nodata\">—</span>"))
    metrics;
  add "<h2>All records</h2>\n<table><tr><th class=\"utc\">utc</th>";
  List.iter (fun m -> add "<th>%s</th>" (html_escape m.m_key)) metrics;
  add "</tr>\n";
  List.iter
    (fun r ->
      add "<tr><td class=\"utc\">%s</td>"
        (html_escape (Option.value ~default:"?" (jstring (J.member "utc" r))));
      List.iter
        (fun m ->
          match number (J.member m.m_key r) with
          | Some v -> add "<td>%s</td>" (fnum v)
          | None -> add "<td class=\"nodata\">—</td>")
        metrics;
      add "</tr>\n")
    records;
  add "</table>\n";
  add
    "<footer>Generated by bench_page from %s.  Only full (non-smoke, \
     non-quick) bench runs append history; smoke and quick numbers are \
     noise by design.</footer>\n"
    (html_escape history_path);
  add "</body></html>\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let () =
  let history = ref "BENCH_history.jsonl" in
  let baseline = ref "BENCH_campaign.json" in
  let out = ref "bench_page.html" in
  let tolerance = ref 0.35 in
  let check = ref false in
  let advisory = ref false in
  let rec parse = function
    | [] -> ()
    | "--history" :: p :: rest ->
        history := p;
        parse rest
    | "--baseline" :: p :: rest ->
        baseline := p;
        parse rest
    | "-o" :: p :: rest ->
        out := p;
        parse rest
    | "--tolerance" :: t :: rest ->
        tolerance := float_of_string t;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--advisory" :: rest ->
        advisory := true;
        parse rest
    | a :: _ ->
        Printf.eprintf "bench_page: unknown argument %S\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !tolerance <= 0.0 || !tolerance >= 1.0 then begin
    Printf.eprintf "bench_page: --tolerance must be in (0, 1)\n";
    exit 2
  end;
  let records, warnings = History.read ~path:!history in
  List.iter (Printf.eprintf "bench_page: %s\n") warnings;
  let base =
    if Sys.file_exists !baseline then
      match J.of_string (read_file !baseline) with
      | Ok j -> Some j
      | Error e ->
          Printf.eprintf "bench_page: baseline %s: unparseable JSON: %s\n"
            !baseline e;
          None
    else begin
      Printf.eprintf
        "bench_page: baseline %s missing; rendering trends ungated\n"
        !baseline;
      None
    end
  in
  let latest_of key =
    match List.rev (series records key) with
    | (_, v) :: _ -> Some v
    | [] -> None
  in
  let verdicts =
    List.filter_map
      (fun m ->
        if not m.m_gated then None
        else
          Some
            ( m.m_key
            , gate ~tolerance:!tolerance
                ~baseline:(baseline_value base m.m_key)
                ~latest:(latest_of m.m_key) ))
      metrics
  in
  let regressed =
    List.filter_map
      (function key, Regressed _ -> Some key | _ -> None)
      verdicts
  in
  List.iter
    (fun (key, v) ->
      match v with
      | Ok_within floor ->
          Printf.printf "bench_page: %-32s latest %10s  floor %10s  ok\n" key
            (Option.fold ~none:"-" ~some:fnum (latest_of key))
            (fnum floor)
      | Regressed floor ->
          Printf.printf "bench_page: %-32s latest %10s  floor %10s  REGRESSED\n"
            key
            (Option.fold ~none:"-" ~some:fnum (latest_of key))
            (fnum floor)
      | Ungated ->
          Printf.printf
            "bench_page: %-32s not present on both sides; trend only\n" key)
    verdicts;
  let html =
    render ~history_path:!history ~baseline_path:!baseline
      ~tolerance:!tolerance ~records ~warnings ~verdicts
  in
  let oc = open_out !out in
  output_string oc html;
  close_out oc;
  Printf.printf "bench_page: wrote %s (%d record(s))\n" !out
    (List.length records);
  if regressed <> [] then
    if !check && not !advisory then begin
      flush stdout;
      Printf.eprintf
        "bench_page: %s regressed beyond %.0f%% tolerance\n"
        (String.concat ", " regressed)
        (!tolerance *. 100.0);
      exit 1
    end
    else
      Printf.printf
        "bench_page: regression beyond %.0f%% tolerance%s\n"
        (!tolerance *. 100.0)
        (if !check then " (advisory mode: not failing the build)" else "")
