module Clock = Bisram_parallel.Clock

type t = {
  mu : Mutex.t;
  total : int option;
  status_file : string option;
  to_stderr : bool;
  min_interval_ns : int64;
  label : string;
  show_anomalies : bool;
  t0_ns : int64;
  mutable last_render_ns : int64;
  mutable done_ : int;
  mutable escapes : int;
  mutable divergences : int;
  mutable tool_errors : int;
  mutable clean : int;
  mutable ci_rel_half_width : float option;
  mutable warned_status : bool;
  mutable line_width : int;  (* widest stderr line so far, for erasing *)
}

let create ?total ?status_file ?(to_stderr = false) ?(min_interval_s = 0.5)
    ?(label = "trials") ?(show_anomalies = true) () =
  { mu = Mutex.create ()
  ; total
  ; status_file
  ; to_stderr
  ; min_interval_ns = Int64.of_float (min_interval_s *. 1e9)
  ; label
  ; show_anomalies
  ; t0_ns = Clock.now_ns ()
  ; last_render_ns = 0L
  ; done_ = 0
  ; escapes = 0
  ; divergences = 0
  ; tool_errors = 0
  ; clean = 0
  ; ci_rel_half_width = None
  ; warned_status = false
  ; line_width = 0
  }

(* ------------------------------------------------------------------ *)
(* rendering (call with t.mu held) *)

let elapsed_s t = Int64.to_float (Int64.sub (Clock.now_ns ()) t.t0_ns) /. 1e9

let rate t =
  let el = elapsed_s t in
  if el > 0.0 then float_of_int t.done_ /. el else 0.0

let eta_s t =
  match t.total with
  | Some total when t.done_ > 0 && t.done_ < total ->
      let r = rate t in
      if r > 0.0 then Some (float_of_int (total - t.done_) /. r) else None
  | _ -> None

let stderr_line t ~final =
  let b = Buffer.create 128 in
  (match t.total with
  | Some total ->
      Buffer.add_string b
        (Printf.sprintf "%d/%d %s (%.1f%%)" t.done_ total t.label
           (if total > 0 then 100.0 *. float_of_int t.done_ /. float_of_int total
            else 100.0))
  | None -> Buffer.add_string b (Printf.sprintf "%d %s" t.done_ t.label));
  if t.show_anomalies then begin
    Buffer.add_string b
      (Printf.sprintf " | esc %d div %d err %d" t.escapes t.divergences
         t.tool_errors);
    if t.clean > 0 then
      Buffer.add_string b
        (Printf.sprintf " | clean %.0f%%"
           (100.0 *. float_of_int t.clean /. float_of_int (max 1 t.done_)))
  end;
  Buffer.add_string b (Printf.sprintf " | %.1f/s" (rate t));
  (match t.ci_rel_half_width with
  | Some hw -> Buffer.add_string b (Printf.sprintf " | CI ±%.1f%%" (hw *. 100.0))
  | None -> ());
  (match eta_s t with
  | Some eta when not final ->
      Buffer.add_string b (Printf.sprintf " | ETA %.0fs" eta)
  | _ -> ());
  if final then
    Buffer.add_string b (Printf.sprintf " | done in %.1fs" (elapsed_s t));
  Buffer.contents b

let opt_float = function
  | Some f -> Json.Float f
  | None -> Json.Null

let status_json t ~final =
  Json.Obj
    [ ("schema", Json.String "bisram-progress/1")
    ; ("done", Json.Int t.done_)
    ; ( "total"
      , match t.total with Some n -> Json.Int n | None -> Json.Null )
    ; ("escapes", Json.Int t.escapes)
    ; ("divergences", Json.Int t.divergences)
    ; ("tool_errors", Json.Int t.tool_errors)
    ; ("clean", Json.Int t.clean)
    ; ("elapsed_s", Json.Float (elapsed_s t))
    ; ("per_sec", Json.Float (rate t))
    ; ("eta_s", opt_float (if final then None else eta_s t))
    ; ("ci_rel_half_width", opt_float t.ci_rel_half_width)
    ; ("finished", Json.Bool final)
    ]

let write_status t ~final path =
  (* atomic replace: readers polling the file never see a torn write *)
  match
    Atomic_file.write ~prefix:".status-" path
      (Json.to_string (status_json t ~final) ^ "\n")
  with
  | () -> ()
  | exception Sys_error e ->
      if not t.warned_status then begin
        t.warned_status <- true;
        Printf.eprintf "progress: cannot write status file %s: %s\n%!" path e
      end

let render t ~final =
  if t.to_stderr then begin
    let line = stderr_line t ~final in
    let pad = max 0 (t.line_width - String.length line) in
    t.line_width <- max t.line_width (String.length line);
    Printf.eprintf "\r%s%s%s%!" line (String.make pad ' ')
      (if final then "\n" else "")
  end;
  Option.iter (write_status t ~final) t.status_file

(* ------------------------------------------------------------------ *)

let update t ~done_ ~escapes ~divergences ~tool_errors ~clean =
  Mutex.lock t.mu;
  t.done_ <- done_;
  t.escapes <- escapes;
  t.divergences <- divergences;
  t.tool_errors <- tool_errors;
  t.clean <- clean;
  let now = Clock.now_ns () in
  if Int64.compare (Int64.sub now t.last_render_ns) t.min_interval_ns >= 0
  then begin
    t.last_render_ns <- now;
    render t ~final:false
  end;
  Mutex.unlock t.mu

let note_ci t ~rel_half_width =
  Mutex.lock t.mu;
  t.ci_rel_half_width <- Some rel_half_width;
  Mutex.unlock t.mu

let finish t =
  Mutex.lock t.mu;
  render t ~final:true;
  Mutex.unlock t.mu
