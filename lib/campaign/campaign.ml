(* The campaign scheduler: [run]'s pool, fold and checkpoints over the
   trial flow ({!Trial}), its records ({!Record}) and their tally
   ({!Tally}); [replay]; and the JSON and human-readable reports. *)

include Trial
include Record
include Tally
module Repairable = Bisram_yield.Repairable
module Chaos = Bisram_chaos.Chaos

let replay cfg ~seed =
  let draw = drawer ~who:"Campaign.replay" cfg in
  Obs.span ~cat:"campaign" ~arg:("trial", -1) "trial" (fun () ->
      run_drawn cfg ~index:(-1) ~seed (draw_seeded draw seed))

let analytic_yield cfg =
  match cfg.repair with
  | Bira _ ->
      (* 2D repair: the row-only closed form does not apply, so the
         report embeds the deterministic seeded Monte-Carlo estimate
         with the exact cover predicate *)
      let g2 =
        Repairable.make2 ~rows:(Org.rows cfg.org) ~cols:(Org.cols cfg.org)
          ~spare_rows:cfg.org.Org.spares ~spare_cols:cfg.org.Org.spare_cols
      in
      (match cfg.mode with
      | Uniform n -> Repairable.p_repairable2 g2 n
      | Poisson mean -> Repairable.yield2_poisson g2 ~mean_defects:mean
      | Clustered { mean; alpha } ->
          Repairable.yield2 g2 ~mean_defects:mean ~alpha)
  | Row_tlb -> (
      let regular_rows = Org.rows cfg.org and spares = cfg.org.Org.spares in
      let g =
        if spares = 0 then Repairable.bare ~regular_rows
        else
          Repairable.make ~regular_rows ~spares ~logic_fraction:0.0
            ~growth_factor:1.0
      in
      match cfg.mode with
      | Uniform n -> Repairable.p_repairable g n
      | Poisson mean -> Repairable.yield_poisson g ~mean_defects:mean
      | Clustered { mean; alpha } ->
          Repairable.yield g ~mean_defects:mean ~alpha)

(* ------------------------------------------------------------------ *)
(* pool items

   A pool item covers [lanes] consecutive trials, each computed by
   [compute_record]; the width trades scheduling overhead against
   chaos, retry and checkpoint granularity and never changes a record.
   The bound, and the default, is the lane width of the bit-parallel
   store ({!Bisram_sram.Word.max_width}). *)

let max_lanes = Bisram_sram.Word.max_width

(* ------------------------------------------------------------------ *)
(* the campaign run *)

(* The events and counters of one record in the fold.  They are emitted
   there, in strict trial order, so the stream is jobs- and
   lanes-invariant, envelope aside. *)
let emit_record rc =
  match rc.rc_body with
  | Rc_ok o when Obs.would_log Obs.Info ->
      Option.iter
        (fun (arows, acols) ->
          Obs.emit ~domain:"campaign" "trial.bira_alloc"
            [ ("trial", J.Int rc.rc_index)
            ; ("seed", J.Int rc.rc_seed)
            ; ("rows", J.List (List.map (fun r -> J.Int r) arows))
            ; ("cols", J.List (List.map (fun c -> J.Int c) acols))
            ])
        o.rc_alloc;
      List.iter
        (fun f ->
          Obs.emit ~domain:"campaign"
            ("trial." ^ List.assoc f.f_kind kind_names)
            [ ("trial", J.Int f.f_trial)
            ; ("seed", J.Int f.f_seed)
            ; ("flow", J.String f.f_flow)
            ; ("detail", J.String f.f_detail)
            ])
        o.rc_failures
  | Rc_ok _ -> ()
  | Rc_error e ->
      Obs.incr "campaign.tool_errors";
      if Obs.would_log Obs.Warn then
        Obs.emit ~level:Obs.Warn ~domain:"campaign" "trial.tool_error"
          [ ("trial", J.Int rc.rc_index)
          ; ("seed", J.Int rc.rc_seed)
          ; ("error", J.String e)
          ]

let run ?now ?(jobs = 1) ?(lanes = max_lanes) ?(should_stop = fun () -> false)
    ?checkpoint ?trial_deadline ?(offset = 0) ?stop_rule ?on_progress cfg =
  if jobs < 1 then invalid_arg "Campaign.run: jobs must be >= 1";
  if lanes < 1 || lanes > max_lanes then
    invalid_arg
      (Printf.sprintf "Campaign.run: lanes must be in 1..%d" max_lanes);
  if offset < 0 then invalid_arg "Campaign.run: offset must be >= 0";
  if offset > 0 && Option.is_some checkpoint then
    invalid_arg
      "Campaign.run: checkpoints cover trials from 0, so they require \
       offset = 0";
  (match stop_rule with
  | Some (every, _) when every < 1 ->
      invalid_arg "Campaign.run: the stopping rule's period must be >= 1"
  | _ -> ());
  let now =
    match now with Some f -> f | None -> Bisram_parallel.Clock.now
  in
  (* the draw is checked and prepared before any trial *)
  let draw = drawer ~who:"Campaign.run" cfg in
  let start = now () in
  let caller = Domain.self () in
  (* set once the stopping rule has ended the campaign *)
  let halted = Atomic.make false in
  let over_budget () =
    (* only the calling domain consults [now]; helper domains see the
       pool's shared stop flag instead, so an impure [now] (e.g. a test
       stub advancing a ref) never races across domains.  The caller's
       [should_stop] (the SIGINT drain flag in the CLI) must be safe to
       poll from any domain — an [Atomic.get] is. *)
    Atomic.get halted || should_stop ()
    || (Domain.self () = caller
       && (match cfg.max_seconds with
          | None -> false
          | Some s -> now () -. start >= s))
  in
  (* resume: the checkpoint contributes a contiguous prefix of already
     computed records, folded before scheduling; the pool only runs the
     trials after it.  Records are deterministic per (config, index), so
     the report cannot depend on which side a trial came from. *)
  let resumed =
    match checkpoint with
    | Some ck when ck.ck_resume -> load_checkpoint cfg draw ck.ck_path
    | _ -> [||]
  in
  let nresumed = Int.min (Array.length resumed) cfg.trials in
  if Obs.enabled () && nresumed > 0 then
    Obs.add "campaign.resumed_trials" nresumed;
  (* once per run, before any trial is scheduled or event emitted *)
  if cfg.trials > nresumed then check_zero_fault_flow cfg;
  (* the one event whose payload names the execution environment
     (jobs/lanes): everything else in the stream is a pure function of
     the work, so jobs-invariance checks drop run.start (see DESIGN.md
     §14) *)
  Obs.emit ~domain:"campaign" "run.start"
    [ ("trials", J.Int cfg.trials)
    ; ("offset", J.Int offset)
    ; ("seed", J.Int cfg.seed)
    ; ("jobs", J.Int jobs)
    ; ("lanes", J.Int lanes)
    ; ("resumed", J.Int nresumed)
    ];
  (* Pool items over the trials after the resumed prefix: one item
     covers [lanes] consecutive trials (full items only — the ragged
     tail degrades to one item per trial, keeping the per-trial
     chaos/retry/checkpoint granularity there).  [offset] shifts the
     whole window: the call computes trials [offset .. offset + trials
     - 1] with their global derived seeds. *)
  let ranges =
    Array.map
      (fun (s, l) -> (s + offset + nresumed, l))
      (Pool.batch_ranges ~items:(cfg.trials - nresumed) ~width:lanes)
  in
  let n_units = Array.length ranges in
  (* A crashed trial becomes its recorded outcome, not a crash of the
     campaign.  Only the exception's rendering enters the record: the
     backtrace depends on build flags and would break cross-jobs
     byte-identity. *)
  let error_record index e =
    let seed = trial_seed cfg index in
    { rc_index = index
    ; rc_seed = seed
    ; rc_body = Rc_error (Printexc.to_string e)
    ; rc_weight = redrawn_weight cfg draw seed
    }
  in
  (* The trial is the unit of failure and of deadline: each arms its own
     cooperative deadline, and a deadline or crash becomes its own tool
     error, whatever else its pool item holds.  A [Pool.Transient] raise
     fails the item, so the pool retries it. *)
  let trial index =
    match
      match trial_deadline with
      | None -> compute_record cfg draw ~index
      | Some s -> Pool.with_deadline s (fun () -> compute_record cfg draw ~index)
    with
    | rc -> rc
    | exception (Pool.Transient _ as e) -> raise e
    | exception Pool.Deadline_exceeded ->
        Obs.incr "pool.deadline_exceeded";
        error_record index Pool.Deadline_exceeded
    | exception e -> error_record index e
  in
  (* Every trial already owns its derived seed, so trials are
     independent and can run on any worker.  Shrinking runs inside the
     worker too (it dominates the cost of a failing trial) and is a
     deterministic function of the trial. *)
  let work unit =
    let start, len = ranges.(unit) in
    (* disarmed chaos neither kills nor fails a job: skip the key *)
    if Chaos.active () then begin
      (match Chaos.kill_at_trial () with
      | Some k when k >= start && k < start + len -> Chaos.kill_now ()
      | _ -> ());
      if
        Chaos.job_fails
          ~key:(Printf.sprintf "%d.%d" start (Pool.current_attempt ()))
      then begin
        (* keyed on (trial, attempt), so the event payload is as
           deterministic as the injection itself *)
        Obs.emit ~level:Obs.Warn ~domain:"chaos" "chaos.inject"
          [ ("trial", J.Int start)
          ; ("attempt", J.Int (Pool.current_attempt ()))
          ];
        raise
          (Pool.Transient
             (Chaos.Injected
                (Printf.sprintf "chaos: injected transient fault (trial %d)"
                   start)))
      end
    end;
    Array.init len (fun l -> trial (start + l))
  in
  (* A finished unit's records, with the pool's telemetry for it: a
     unit that exhausted its retries is one tool error per trial. *)
  let records_of_job unit (r : trial_record array Pool.job_result) =
    if r.Pool.attempts > 1 then Obs.add "pool.retries" (r.Pool.attempts - 1);
    match r.Pool.outcome with
    | Ok arr -> arr
    | Error f ->
        let start, len = ranges.(unit) in
        if f.Pool.f_transient then Obs.incr "pool.retry_exhausted";
        if Obs.would_log Obs.Warn then
          Obs.emit ~level:Obs.Warn ~domain:"pool" "pool.job_failed"
            [ ("trial_start", J.Int start)
            ; ("len", J.Int len)
            ; ("attempts", J.Int r.Pool.attempts)
            ; ("transient", J.Bool f.Pool.f_transient)
            ; ("error", J.String (Printexc.to_string f.Pool.f_exn))
            ];
        Array.init len (fun l -> error_record (start + l) f.Pool.f_exn)
  in
  (* The fold: the one place a trial record is counted, in strict trial
     order.  It adds each record to the report counts (importance
     weights included, so the float sums are jobs- and lanes-invariant),
     emits its events, keeps the checkpoint prefix and consults the
     stopping rule; after each step it snapshots the checkpoint and
     streams progress from the same counts.  The stopping rule sees the
     running result as a fixed run of the trials folded so far; once it
     holds, nothing more is folded and the pool schedules nothing new. *)
  let c = counts cfg in
  let ck_write =
    match checkpoint with
    | Some ck when ck.ck_every > 0 -> Some ck
    | _ -> None
  in
  (* the folded records, newest first, kept only for checkpoints *)
  let ck_records = ref [] in
  let ck_last_written = ref nresumed in
  let fold_record rc =
    if not (Atomic.get halted) then begin
      add c rc;
      emit_record rc;
      if Option.is_some ck_write then ck_records := rc :: !ck_records;
      match stop_rule with
      | Some (every, rule)
        when c.c_trials mod every = 0 || c.c_trials = cfg.trials ->
          let n = { cfg with trials = c.c_trials } in
          if rule (result_of_counts n c ~resumed_trials:nresumed) then
            Atomic.set halted true
      | _ -> ()
    end
  in
  let fold_step () =
    Option.iter
      (fun ck ->
        if c.c_trials - !ck_last_written >= ck.ck_every then begin
          write_checkpoint cfg ck.ck_path (List.rev !ck_records);
          ck_last_written := c.c_trials
        end)
      ck_write;
    Option.iter
      (fun f -> f (progress_of_counts ~total:cfg.trials c))
      on_progress
  in
  Array.iter fold_record (Array.sub resumed 0 nresumed);
  if nresumed > 0 then fold_step ();
  (* The collector: finished units wait here until every unit before
     them has finished, then fold in unit order, on the completing
     worker's domain under one mutex — so successive progress snapshots
     never decrease.  Under a budget, units finished beyond the first
     unfinished one are never folded: a truncated report is exactly the
     trials [offset .. offset + trials_run - 1] at every job count. *)
  let finished = Array.make n_units None in
  let next = ref 0 in
  let collector = Mutex.create () in
  let on_result unit r =
    Mutex.protect collector (fun () ->
        finished.(unit) <- Some r;
        if unit = !next then begin
          while
            !next < n_units
            && Option.is_some finished.(!next)
            && not (Atomic.get halted)
          do
            let r = Option.get finished.(!next) in
            finished.(!next) <- None;
            Array.iter fold_record (records_of_job !next r);
            incr next
          done;
          fold_step ()
        end)
  in
  (* retry observability: the pool calls this on the raising worker
     right before a transient re-attempt *)
  let on_retry =
    if not (Obs.enabled () || Obs.would_log Obs.Warn) then None
    else
      Some
        (fun unit ~attempt e ->
          Obs.incr "pool.retry_attempts";
          if Obs.would_log Obs.Warn then begin
            let start, len = ranges.(unit) in
            Obs.emit ~level:Obs.Warn ~domain:"pool" "pool.retry"
              [ ("trial_start", J.Int start)
              ; ("len", J.Int len)
              ; ("attempt", J.Int attempt)
              ; ("error", J.String (Printexc.to_string e))
              ]
          end)
  in
  ignore
    (Pool.map_result ~jobs ~should_stop:over_budget ?probe:(Obs.pool_probe ())
       ~on_result ?on_retry n_units work);
  (* final snapshot: a graceful drain (budget or SIGINT) leaves the
     freshest contiguous prefix on disk for the next --resume *)
  (match ck_write with
  | Some ck when c.c_trials > !ck_last_written ->
      write_checkpoint cfg ck.ck_path (List.rev !ck_records)
  | _ -> ());
  (* a stopping rule that held ends the campaign as a fixed run *)
  let config =
    if Atomic.get halted then { cfg with trials = c.c_trials } else cfg
  in
  let r = result_of_counts config c ~resumed_trials:nresumed in
  Obs.emit ~domain:"campaign" "run.end"
    [ ("trials_run", J.Int r.trials_run)
    ; ("truncated", J.Bool r.truncated)
    ; ("escapes", J.Int c.c_n_escapes)
    ; ("divergences", J.Int c.c_n_divergences)
    ; ("tool_errors", J.Int c.c_n_tool_errors)
    ];
  r

(* ------------------------------------------------------------------ *)
(* JSON report *)

let histogram_json h =
  J.Obj
    [ ("passed_clean", J.Int h.passed_clean)
    ; ("repaired", J.Int h.repaired)
    ; ("too_many_faulty_rows", J.Int h.too_many_faulty_rows)
    ; ("fault_in_second_pass", J.Int h.fault_in_second_pass)
    ]

let to_json r =
  J.Obj
    [ ("schema", J.String "bisram-campaign/2")
    ; ("config", config_json r.config)
    ; ("trials_run", J.Int r.trials_run)
    ; ("truncated", J.Bool r.truncated)
    ; ( "outcomes"
      , J.Obj
          [ ("two_pass", histogram_json r.two_pass)
          ; ("iterated", histogram_json r.iterated)
          ] )
    ; ( "repair_rounds"
      , J.List
          (List.map
             (fun (rounds, count) ->
               J.Obj [ ("rounds", J.Int rounds); ("count", J.Int count) ])
             r.rounds) )
    ; ("escapes", J.List (List.map failure_json r.escapes))
    ; ("divergences", J.List (List.map failure_json r.divergences))
    ; ("tool_errors", J.List (List.map tool_error_json r.tool_errors))
    ; ( "yield"
      , J.Obj
          [ ("observed_two_pass", J.Float r.observed_yield_two_pass)
          ; ("observed_iterated", J.Float r.observed_yield_iterated)
          ; ("analytic", J.Float (analytic_yield r.config))
          ] )
    ]

let json_string r = J.to_string (to_json r)

let pretty_json_string r = J.to_pretty_string (to_json r)

(* ------------------------------------------------------------------ *)
(* human-readable trial report (the --replay output) *)

let pp_anomaly ppf = function
  | Escape { flow; mismatches } ->
      Format.fprintf ppf "ESCAPE (%s flow): %d mismatching read(s)"
        (flow_name flow) (List.length mismatches);
      List.iteri
        (fun i m ->
          if i < 8 then Format.fprintf ppf "@.    %a" Sweep.pp_mismatch m)
        mismatches
  | Divergence { detail } -> Format.fprintf ppf "DIVERGENCE: %s" detail

let pp_trial ppf t =
  Format.fprintf ppf "trial seed %d: %d fault(s)@." t.t_seed
    (List.length t.t_faults);
  List.iter (fun f -> Format.fprintf ppf "  %a@." Fault.pp f) t.t_faults;
  let v = t.t_verdicts in
  Format.fprintf ppf "controller: %a (%d cycles)@." Repair.pp_outcome
    v.controller v.cycles;
  Format.fprintf ppf "reference : %a@." Repair.pp_outcome v.reference;
  Format.fprintf ppf "iterated  : %a (%d round(s))@." Repair.pp_outcome
    v.iterated v.rounds;
  match t.t_anomalies with
  | [] -> Format.fprintf ppf "no escapes, no divergences@."
  | l -> List.iter (fun a -> Format.fprintf ppf "%a@." pp_anomaly a) l
