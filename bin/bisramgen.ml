(* BISRAMGEN command-line driver.

   Subcommands:
     compile    generate a BISR RAM module: datasheet, floorplan, CIF
     selftest   inject faults into the generated RAM and run BIST/BISR
     campaign   randomized Monte Carlo test-and-repair campaign
     explore    parallel design-space sweep with memoized evaluations
     analyze    yield, reliability and power analysis of a configuration
     processes  list the bundled CMOS processes
     marches    list the bundled march algorithms *)

open Cmdliner

module Config = Bisram_core.Config
module Compiler = Bisram_core.Compiler
module Config_file = Bisram_core.Config_file
module Pr = Bisram_tech.Process
module Org = Bisram_sram.Org
module March = Bisram_bist.March
module Alg = Bisram_bist.Algorithms
module I = Bisram_faults.Injection
module Repair = Bisram_bisr.Repair
module Floorplan = Bisram_pr.Floorplan
module Campaign = Bisram_campaign.Campaign
module Estimator = Bisram_campaign.Estimator
module Proposal = Bisram_faults.Proposal
module Obs = Bisram_obs.Obs
module Obs_export = Bisram_obs.Export
module Progress = Bisram_obs.Progress
module Json = Bisram_obs.Json

(* ------------------------------------------------------------------ *)
(* shared arguments *)

let ( let* ) = Result.bind

(* A raising validator as a result, so every check lands in one error
   channel. *)
let checked f =
  match f () with v -> Ok v | exception Invalid_argument e -> Error e

(* A name resolved against its table; the diagnostic lists the table's
   names, so it cannot drift from what is accepted. *)
let choose what table name =
  match List.assoc_opt name table with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (expected %s)" what name
           (String.concat ", " (List.map fst table)))

let process_arg =
  let doc = "CMOS process (cda.5u3m1p, mos.6u3m1pHP, cda.7u3m1p)." in
  Arg.(value & opt string "CDA.7u3m1p" & info [ "p"; "process" ] ~doc)

(* The organization flags, declared once for every subcommand that
   takes them; only the defaults differ (compile sizes a datasheet
   module, selftest and campaign a simulable one).  [make] receives
   words, bpw, bpc, spares and spare columns. *)
let org_term ~words ~bpw ~bpc make =
  let int names default doc = Arg.(value & opt int default & info names ~doc) in
  Term.(
    const make
    $ int [ "w"; "words" ] words "Number of words (positive multiple of bpc)."
    $ int [ "bpw" ] bpw
        "Bits per word (power of two; at most 62 where the RAM is simulated)."
    $ int [ "bpc" ] bpc "Bits per column / column-mux degree (power of two)."
    $ int [ "s"; "spares" ] 4 "Spare rows: 0, 4, 8 or 16."
    $ int [ "spare-cols" ] 0 "Spare columns for 2D (BIRA) repair: 0 .. 8.")

let drive_arg =
  let doc = "Critical-gate size multiplier (1-8)." in
  Arg.(value & opt int 2 & info [ "drive" ] ~doc)

let strap_arg =
  let doc = "Cells between strap columns (0 disables)." in
  Arg.(value & opt int 32 & info [ "strap" ] ~doc)

let march_arg =
  let doc =
    "March algorithm: a library name (IFA-9, IFA-13, MATS+, \"March C-\", \
     \"March B\", Zero-One) or an inline notation like \
     \"u(w0); u(r0,w1); d(r1,w0)\"."
  in
  Arg.(value & opt string "IFA-9" & info [ "m"; "march" ] ~doc)

(* compile, selftest and analyze: the organization plus process, gate
   sizing, strapping and march, resolved as a config file would be *)
let config_term ~words ~bpw ~bpc =
  let config words bpw bpc spares spare_cols process drive strap march =
    Config_file.config ~process ~march ~words ~bpw ~bpc ~spares ~spare_cols
      ~drive ~strap
  in
  Term.(
    org_term ~words ~bpw ~bpc config $ process_arg $ drive_arg $ strap_arg
    $ march_arg)

(* compile, selftest and analyze exit 1 on a bad configuration *)
let with_config cfg k =
  match cfg with
  | Error e ->
      Printf.eprintf "bisramgen: %s\n" e;
      1
  | Ok cfg -> k cfg

(* campaign and explore exit 2 (distinct from 1 = runtime error, 3 =
   anomaly), with a one-line diagnostic, never a backtrace *)
let invalid_configuration e =
  Printf.eprintf "bisramgen: invalid configuration: %s\n" e;
  2

(* The --jobs contract is shared by every parallel subcommand (campaign,
   explore): default 1 (fully sequential), 0 auto-detects the machine's
   recommended domain count, negative is an error.  One arg + one
   resolver, so the subcommands cannot drift. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains running work items concurrently (default 1, fully \
           sequential; 0 auto-detects the machine's recommended domain \
           count).  Reports are byte-identical at any $(docv).")

let resolve_jobs jobs =
  if jobs < 0 then
    Error (Printf.sprintf "--jobs must be >= 0 (got %d; 0 = auto-detect)" jobs)
  else if jobs = 0 then Ok (Bisram_parallel.Pool.recommended_jobs ())
  else Ok jobs

(* ------------------------------------------------------------------ *)
(* compile *)

let do_compile flags config_file show_floorplan show_rtl cif_dir =
  let cfg =
    match config_file with
    | None -> flags
    | Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error e -> Error e
        | text ->
            Result.map_error (fun e -> path ^ ": " ^ e)
              (Config_file.of_string text))
  in
  with_config cfg @@ fun cfg ->
  let d = Compiler.compile cfg in
  print_string (Compiler.datasheet d);
  if show_floorplan then begin
    Format.printf "@.%a@." Floorplan.pp d.Compiler.floorplan;
    print_string (Floorplan.render ~width:76 d.Compiler.floorplan)
  end;
  if show_rtl then begin
    print_newline ();
    print_string (Compiler.rtl d)
  end;
  (match cif_dir with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      List.iter
        (fun (name, cif) ->
          let path = Filename.concat dir (name ^ ".cif") in
          let oc = open_out path in
          output_string oc cif;
          close_out oc;
          Printf.printf "wrote %s\n" path)
        (Compiler.leaf_library_cif d));
  0

let compile_cmd =
  let floorplan_arg =
    Arg.(value & flag & info [ "floorplan" ] ~doc:"Print the placed floorplan.")
  in
  let cif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cif" ] ~docv:"DIR" ~doc:"Write the leaf-cell library as CIF files into $(docv).")
  in
  let rtl_arg =
    Arg.(
      value & flag
      & info [ "rtl" ] ~doc:"Print the BIST/BISR engine as structural Verilog.")
  in
  let config_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE"
          ~doc:"Read the configuration from a key = value file (overrides the individual flags).")
  in
  let term =
    Term.(
      const do_compile
      $ config_term ~words:4096 ~bpw:128 ~bpc:8
      $ config_arg $ floorplan_arg $ rtl_arg $ cif_arg)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Generate a BISR RAM module.") term

(* ------------------------------------------------------------------ *)
(* selftest *)

let do_selftest cfg nfaults seed_opt =
  let simulable cfg =
    if Org.simulable cfg.Config.org then Ok cfg
    else
      Error
        (Printf.sprintf
           "selftest simulates the RAM word-by-word, which needs bpw <= %d \
            (got %d); wider organizations are compile-only"
           Bisram_sram.Word.max_width cfg.Config.org.Org.bpw)
  in
  with_config (Result.bind cfg simulable) @@ fun cfg ->
  let org = cfg.Config.org in
  (* no --seed: draw one from the system and print it, so any run
     remains reproducible after the fact *)
  let seed =
    match seed_opt with
    | Some s -> s
    | None -> Random.State.int (Random.State.make_self_init ()) 0x3FFFFFFF
  in
  Format.printf "seed    : %d@." seed;
  let rng = Random.State.make [| seed |] in
  let faults =
    I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
      ~mix:I.default_mix ~n:nfaults
  in
  Format.printf "injected %d fault(s):@." nfaults;
  List.iter (fun f -> Format.printf "  %a@." Bisram_faults.Fault.pp f) faults;
  let d = Compiler.compile cfg in
  let outcome, report = Compiler.self_test d ~faults in
  Format.printf "outcome : %a@." Repair.pp_outcome outcome;
  Format.printf "cycles  : %d@." report.Bisram_bist.Controller.cycles;
  Format.printf "recorded: %d row(s)@."
    report.Bisram_bist.Controller.faults_recorded;
  match outcome with Repair.Repair_unsuccessful _ -> 2 | _ -> 0

let selftest_cmd =
  let nfaults_arg =
    Arg.(value & opt int 2 & info [ "n"; "faults" ] ~doc:"Faults to inject.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ]
          ~doc:
            "Random seed (printed, so the run is replayable; a fresh one is \
             drawn when omitted).")
  in
  let term =
    Term.(
      const do_selftest
      $ config_term ~words:4096 ~bpw:32 ~bpc:8
      $ nfaults_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Inject random faults and run the two-pass self-test/repair \
          (exit code 2 when the repair is unsuccessful).")
    term

(* ------------------------------------------------------------------ *)
(* observability flags, shared by campaign and explore *)

(* Every channel runs around the run, never inside its report: trace,
   metrics and events go to their own files, the stats table and the
   progress line to stderr, and stdout still carries the byte-identical
   JSON report. *)
type observability = {
  trace : string option;
  metrics : string option;
  stats : bool;
  events : string option;
  events_level : string;
  progress : bool;
  status_file : string option;
}

(* [spans] names what the command's trace records; every other flag
   reads the same under both commands *)
let observability_term ~spans =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            ("Write a Chrome trace-event JSON with " ^ spans
           ^ " to $(docv); load it in Perfetto or chrome://tracing.  \
              Enables telemetry."))
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a flat metrics JSON (counters such as fast/legacy or \
             cache hit/miss, per-worker busy/idle time, deterministic \
             histograms) to $(docv).  Enables telemetry.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print a human-readable phase/counter table to stderr after the \
             run (stdout still carries the byte-identical JSON report).  \
             Enables telemetry.")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Write a structured JSONL event log (run lifecycle, pool retries \
             and deadline kills, chaos injections, cache quarantines, \
             checkpoint writes, estimator adaptive batches) to $(docv) after \
             the run.  Like telemetry, events never change the report.")
  in
  let events_level =
    Arg.(
      value & opt string "info"
      & info [ "events-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum level recorded by $(b,--events): debug, info or warn \
             (debug adds per-key cache hit/miss events).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Maintain a live one-line progress display on stderr (done/total, \
             anomaly counts, throughput, ETA, and the CI half-width under \
             adaptive stopping).  stdout still carries the byte-identical \
             JSON report.")
  in
  let status_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-file" ] ~docv:"FILE"
          ~doc:
            "Atomically rewrite $(docv) with a machine-readable JSON progress \
             snapshot (schema bisram-progress/1) on each progress tick, for \
             external pollers; write failures warn once and never kill the \
             run.")
  in
  let make trace metrics stats events events_level progress status_file =
    { trace; metrics; stats; events; events_level; progress; status_file }
  in
  Term.(
    const make $ trace $ metrics $ stats $ events $ events_level $ progress
    $ status_file)

(* Arm the registry before the run.  The event level is validated
   eagerly, so a typo is an exit-2 configuration error, not a silently
   empty log. *)
let arm o =
  match Obs_export.level_of_string o.events_level with
  | Error e -> Error ("--events-level: " ^ e)
  | Ok lvl ->
      Obs.set_enabled (o.trace <> None || o.metrics <> None || o.stats);
      Obs.set_event_level (Option.map (Fun.const lvl) o.events);
      Obs.reset ();
      Ok ()

(* Write every requested artifact after the run.  A write failure warns
   and moves on to the next artifact: the report is already on stdout,
   and the run keeps its exit code. *)
let export o =
  let snap = Obs.snapshot () in
  let write flag path contents note =
    match Out_channel.with_open_text path contents with
    | () -> prerr_endline note
    | exception Sys_error e ->
        Printf.eprintf "bisramgen: cannot write %s %s: %s\n" flag path e
  in
  let json j oc = output_string oc (Json.to_pretty_string j) in
  Option.iter
    (fun p ->
      write "--trace" p (json (Obs_export.chrome_trace_json snap))
        ("wrote trace " ^ p ^ " (load in Perfetto / chrome://tracing)"))
    o.trace;
  Option.iter
    (fun p ->
      write "--metrics" p (json (Obs_export.metrics_json snap))
        ("wrote metrics " ^ p))
    o.metrics;
  if o.stats then prerr_string (Obs_export.stats_table snap);
  Option.iter
    (fun p ->
      let evs = Obs.drain_events () in
      write "--events" p
        (fun oc -> Obs_export.write_events_jsonl oc evs)
        (Printf.sprintf "wrote %d event(s) to %s" (List.length evs) p))
    o.events

(* Progress rendering: armed by --progress (stderr line) and/or
   --status-file (atomic JSON snapshot); absent both, no reporter
   exists and the run pays nothing. *)
let make_progress ?total ?label ?show_anomalies o =
  if o.progress || Option.is_some o.status_file then
    Some
      (Progress.create ?total ?status_file:o.status_file ~to_stderr:o.progress
         ?label ?show_anomalies ())
  else None

(* ------------------------------------------------------------------ *)
(* campaign *)

let do_campaign org march trials seed mode nfaults mean alpha mix repair
    max_seconds no_shrink max_rounds jobs obs replay_seed
    fail_on_anomaly checkpoint_path checkpoint_every resume trial_deadline
    confidence target_ci ci_metric ci_batch ci_max_trials prop_scale
    prop_shift prop_nonzero prop_mix =
  (* One error channel: the first bad flag is the exit-2 diagnostic.
     Whatever the proposal gets wrong (negative shift, stratified
     fraction outside (0,1), a proposal mix starving a nominal class,
     …) is caught by [Proposal.validate] inside [make_config]. *)
  let setup =
    let* march = Config_file.march march in
    let* mix = choose "--mix" I.named_mixes mix in
    let* mode =
      choose "--mode"
        [ ("uniform", Campaign.Uniform nfaults)
        ; ("poisson", Campaign.Poisson mean)
        ; ("clustered", Campaign.Clustered { mean; alpha }) ]
        mode
    in
    let* jobs = resolve_jobs jobs in
    let* count =
      match prop_nonzero with
      | Some _ when prop_scale <> 1.0 || prop_shift <> 0.0 ->
          Error
            "--proposal-nonzero is exclusive with --proposal-count-scale and \
             --proposal-count-shift"
      | Some nonzero -> Ok (Proposal.Stratified { nonzero })
      | None when prop_scale = 1.0 && prop_shift = 0.0 ->
          Ok Proposal.Count_nominal
      | None -> Ok (Proposal.Scaled { scale = prop_scale; shift = prop_shift })
    in
    let* proposal_mix =
      choose "--proposal-mix"
        (("nominal", None)
        :: List.map (fun (name, m) -> (name, Some m)) I.named_mixes)
        prop_mix
    in
    let* ci_metric =
      choose "--ci-metric"
        [ ("repair-failure", Estimator.Repair_failure_two_pass)
        ; ("repair-failure-iterated", Estimator.Repair_failure_iterated)
        ; ("escape", Estimator.Escape) ]
        ci_metric
    in
    let* repair =
      choose "--repair"
        (List.map (fun r -> (Campaign.repair_name r, r)) Campaign.repairs)
        repair
    in
    let* org = org in
    let* cfg, ck, trial_deadline, reporter, stop_rule =
      checked @@ fun () ->
      (* under --target-ci the trial count is the adaptive run's cap *)
      let trials = if Option.is_some target_ci then ci_max_trials else trials in
      let cfg =
        Campaign.make_config ~org ~march ~mix ~mode
          ~proposal:{ Proposal.count; mix = proposal_mix } ~repair ~trials
          ~seed ?max_seconds ~shrink:(not no_shrink) ~max_rounds ()
      in
      let trial_deadline =
        Option.map
          (fun s ->
            match Bisram_parallel.Pool.deadline s with
            | Some d -> d
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "--trial-deadline must be finite and positive (got %g)" s))
          trial_deadline
      in
      let reporter =
        match replay_seed with
        | Some _ -> None
        | None -> make_progress ~total:cfg.Campaign.trials obs
      in
      (* the stopping rule checks its own target and batch; the
         diagnostic names the flag *)
      let stop_rule =
        Option.map
          (fun target ->
            let on_batch =
              Option.map
                (fun p ~batches:_ ~trials:_ ~rel_half_width ->
                  if Float.is_finite rel_half_width then
                    Progress.note_ci p ~rel_half_width)
                reporter
            in
            match
              Estimator.stop_rule ~batch:ci_batch ~metric:ci_metric
                ?on_batch ~target ()
            with
            | Ok rule -> rule
            | Error `Target -> invalid_arg "--target-ci must be positive"
            | Error `Batch -> invalid_arg "--ci-batch must be >= 1")
          target_ci
      in
      let ck =
        if checkpoint_every <> 0 || resume then
          Some
            (Campaign.checkpoint ~path:checkpoint_path ~every:checkpoint_every
               ~resume ())
        else None
      in
      (match target_ci with
      | None -> ()
      | Some _ ->
          if ci_max_trials < 1 then invalid_arg "--ci-max-trials must be >= 1";
          if Option.is_some ck then
            invalid_arg
              "--target-ci (adaptive stopping) is incompatible with \
               --checkpoint-every and --resume (checkpoints cover a fixed \
               trial count)";
          if Option.is_some replay_seed then
            invalid_arg "--target-ci is incompatible with --replay");
      (cfg, ck, trial_deadline, reporter, stop_rule)
    in
    (* the registry is armed only once the configuration is valid *)
    let* () = arm obs in
    (* the resolved job count stays out of the config: the report must
       not depend on the machine the campaign happened to run on *)
    Ok (cfg, jobs, ck, ci_metric, trial_deadline, reporter, stop_rule)
  in
  match setup with
  | Error e -> invalid_configuration e
  | Ok (cfg, jobs, ck, ci_metric, trial_deadline, reporter, stop_rule) -> (
      let finish code =
        export obs;
        code
      in
      match replay_seed with
      | Some rseed ->
          let t = Campaign.replay cfg ~seed:rseed in
          Format.printf "%a" Campaign.pp_trial t;
          List.iter
            (fun anomaly ->
              let shrunk = Campaign.shrink_anomaly cfg anomaly t.Campaign.t_faults in
              if List.length shrunk < List.length t.Campaign.t_faults then begin
                Format.printf "shrunk reproducer: %d fault(s)@."
                  (List.length shrunk);
                List.iter
                  (fun f ->
                    Format.printf "  %a@." Bisram_faults.Fault.pp f)
                  shrunk
              end)
            t.Campaign.t_anomalies;
          finish (if t.Campaign.t_anomalies = [] then 0 else 3)
      | None ->
          (* SIGINT drains instead of killing: the flag is polled by
             every worker before each trial (an Atomic.get, so it is
             domain-safe), in-flight trials finish, and the maximal
             contiguous prefix is still reported — exactly the
             wall-clock-budget truncation semantics.  A second SIGINT
             falls through to the restored default handler. *)
          let sigint = Atomic.make false in
          let prev_sigint =
            try
              Some
                (Sys.signal Sys.sigint
                   (Sys.Signal_handle (fun _ -> Atomic.set sigint true)))
            with Invalid_argument _ | Sys_error _ -> None
          in
          match
            Fun.protect
              ~finally:(fun () ->
                match prev_sigint with
                | Some h -> Sys.set_signal Sys.sigint h
                | None -> ())
              (fun () ->
                let should_stop () = Atomic.get sigint in
                let on_progress =
                  Option.map
                    (fun p (pr : Campaign.progress) ->
                      Progress.update p ~done_:pr.Campaign.p_done
                        ~escapes:pr.Campaign.p_escapes
                        ~divergences:pr.Campaign.p_divergences
                        ~tool_errors:pr.Campaign.p_tool_errors
                        ~clean:pr.Campaign.p_clean)
                    reporter
                in
                Fun.protect
                  ~finally:(fun () -> Option.iter Progress.finish reporter)
                  (fun () ->
                    let r =
                      Campaign.run ~jobs ~should_stop ?checkpoint:ck
                        ?trial_deadline ?stop_rule ?on_progress cfg
                    in
                    ( r
                    , Option.map
                        (fun target ->
                          Estimator.adaptive_of_result ~batch:ci_batch
                            ~metric:ci_metric ~target r)
                        target_ci )))
          with
          (* a configuration the campaign refuses to simulate, such as a
             march that fails a fault-free array *)
          | exception Failure e -> finish (invalid_configuration e)
          | r, adaptive ->
            (* estimation fully off: the exact pre-estimator schema-/2
               bytes.  Any estimation feature (a proposal, adaptive
               stopping, or an explicit --confidence) switches to the
               schema-/3 report with the confidence section. *)
            let estimation_on =
              confidence
              || Option.is_some adaptive
              || Option.is_some cfg.Campaign.proposal
            in
            if estimation_on then
              print_string (Estimator.pretty_report_string ?adaptive r)
            else print_string (Campaign.pretty_json_string r);
            (match adaptive with
            | Some a ->
                Printf.eprintf
                  "bisramgen: adaptive stop after %d trial(s) in %d batch(es): \
                   %s (rel CI half-width %.4g, target %.4g)\n"
                  r.Campaign.trials_run a.Estimator.a_batches
                  (Estimator.stop_reason_name a.Estimator.a_reason)
                  a.Estimator.a_rel_half_width a.Estimator.a_target
            | None -> ());
            if r.Campaign.resumed_trials > 0 then
              Printf.eprintf "bisramgen: resumed %d trial(s) from checkpoint\n"
                r.Campaign.resumed_trials;
            if r.Campaign.tool_errors <> [] then
              Printf.eprintf "bisramgen: %d trial(s) recorded as tool errors\n"
                (List.length r.Campaign.tool_errors);
            if Atomic.get sigint then begin
              Printf.eprintf
                "bisramgen: interrupted; report covers the first %d trial(s)\n"
                r.Campaign.trials_run;
              finish 130
            end
            else
              finish
                (if
                   fail_on_anomaly
                   && (r.Campaign.escapes <> [] || r.Campaign.divergences <> [])
                 then 3
                 else 0))

let campaign_cmd =
  let trials_arg =
    Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Trials to run.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let mode_arg =
    Arg.(
      value
      & opt string "uniform"
      & info [ "mode" ]
          ~doc:
            "Fault-count model per trial: uniform (exactly $(b,--faults)), \
             poisson or clustered (negative binomial, $(b,--mean) and \
             $(b,--alpha)).")
  in
  let nfaults_arg =
    Arg.(
      value & opt int 2
      & info [ "n"; "faults" ] ~doc:"Faults per trial (uniform mode).")
  in
  let mean_arg =
    Arg.(
      value & opt float 2.0
      & info [ "mean" ] ~doc:"Mean fault count (poisson/clustered modes).")
  in
  let alpha_arg =
    Arg.(
      value & opt float 2.0
      & info [ "alpha" ] ~doc:"Clustering factor (clustered mode).")
  in
  let mix_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "mix" ]
          ~doc:"Fault-class mix: default (IFA), stuck-at or retention.")
  in
  let repair_arg =
    Arg.(
      value
      & opt string "row-tlb"
      & info [ "repair" ]
          ~doc:
            "Repair architecture per trial: row-tlb (the paper's row-only \
             TLB flow), or a 2D BIRA allocator — bira-greedy, \
             bira-essential or bira-bnb (branch and bound, provably \
             optimal).")
  in
  let max_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ]
          ~doc:
            "Wall-clock budget; the campaign stops gracefully when exceeded \
             and flags the report as truncated.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Skip delta-debugging failing fault sets to minimal reproducers.")
  in
  let max_rounds_arg =
    Arg.(
      value & opt int 8
      & info [ "max-rounds" ] ~doc:"Iterated (2k-pass) repair round bound.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Re-run the single trial with this seed (from a campaign report) \
             and print it human-readably; exit 3 when it shows an escape or \
             divergence.")
  in
  let fail_arg =
    Arg.(
      value & flag
      & info [ "fail-on-anomaly" ]
          ~doc:"Exit 3 when the campaign found any escape or divergence.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt string ".bisram-campaign.ckpt.json"
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint snapshot file (atomic temp + rename).  Only used \
             when $(b,--checkpoint-every) or $(b,--resume) is given.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Snapshot the completed-trial prefix every $(docv) trials (and \
             once at the end).  0 (the default) disables checkpoint writing.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Load the checkpoint first and serve its trials from memory \
             instead of recomputing them.  The report is byte-identical to \
             an uninterrupted run; a missing or damaged checkpoint silently \
             degrades to recomputation.")
  in
  let trial_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "trial-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Cooperative per-trial deadline: a trial exceeding it is \
             recorded as a tool error in the report and the campaign \
             continues.  A trial that draws no fault never exceeds it, and \
             the report of a run whose trials all meet it is the \
             deadline-free report.")
  in
  let confidence_arg =
    Arg.(
      value & flag
      & info [ "confidence" ]
          ~doc:
            "Emit the schema-/3 report with Wilson and Clopper-Pearson \
             confidence intervals on the escape and repair-failure rates.  \
             Implied by any $(b,--proposal-*) flag and by \
             $(b,--target-ci); without them the report keeps its exact \
             schema-/2 bytes.")
  in
  let target_ci_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "target-ci" ] ~docv:"REL"
          ~doc:
            "Adaptive stopping: one campaign of up to $(b,--ci-max-trials) \
             trials that stops, at the first multiple of $(b,--ci-batch) \
             trials, once the Wilson interval's relative half-width on \
             $(b,--ci-metric) is down to $(docv) (e.g. 0.1 = ±10%), \
             instead of a fixed $(b,--trials).  The report is \
             byte-identical to a fixed-trial run of the same size; \
             $(b,--max-seconds) bounds the whole run.")
  in
  let ci_metric_arg =
    Arg.(
      value
      & opt string "repair-failure"
      & info [ "ci-metric" ]
          ~doc:
            "Metric the adaptive stopper tracks: repair-failure (two-pass \
             flow), repair-failure-iterated or escape.")
  in
  let ci_batch_arg =
    Arg.(
      value & opt int 992
      & info [ "ci-batch" ] ~docv:"N"
          ~doc:
            "Trials between evaluations of the adaptive stopping rule; the \
             run stops only at a multiple of $(docv) (or at \
             $(b,--ci-max-trials)).")
  in
  let ci_max_trials_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "ci-max-trials" ] ~docv:"N"
          ~doc:
            "Trial cap of an adaptive run; it stops there with reason \
             trial_cap if the target was not reached.")
  in
  let prop_scale_arg =
    Arg.(
      value & opt float 1.0
      & info [ "proposal-count-scale" ] ~docv:"S"
          ~doc:
            "Importance sampling: multiply the mean of the fault-count \
             model by $(docv) in the proposal (poisson/clustered modes).  \
             Reports stay unbiased via likelihood-ratio weights.")
  in
  let prop_shift_arg =
    Arg.(
      value & opt float 0.0
      & info [ "proposal-count-shift" ] ~docv:"H"
          ~doc:
            "Importance sampling: add $(docv) to the (scaled) mean of the \
             proposal fault-count model.")
  in
  let prop_nonzero_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "proposal-nonzero" ] ~docv:"F"
          ~doc:
            "Stratified sampling: draw a trial with at least one fault with \
             probability $(docv) (0 < $(docv) < 1) and zero faults \
             otherwise, reweighting each stratum by its nominal mass.  \
             Exclusive with the count-scale/shift flags.")
  in
  let prop_mix_arg =
    Arg.(
      value
      & opt string "nominal"
      & info [ "proposal-mix" ]
          ~doc:
            "Fault-class mix of the proposal: nominal (same as $(b,--mix)), \
             default, stuck-at or retention.  Classes are reweighted per \
             drawn fault.")
  in
  let term =
    Term.(
      const do_campaign
      $ org_term ~words:64 ~bpw:8 ~bpc:4
          (fun words bpw bpc spares spare_cols ->
            checked (Org.make ~spares ~spare_cols ~words ~bpw ~bpc))
      $ march_arg $ trials_arg $ seed_arg $ mode_arg $ nfaults_arg $ mean_arg
      $ alpha_arg $ mix_arg $ repair_arg $ max_seconds_arg $ no_shrink_arg
      $ max_rounds_arg $ jobs_arg
      $ observability_term
          ~spans:
            "per-trial phase spans (inject, march, repair, oracle under \
             BIRA, escape-sweep, shrink) and per-march-element BIST \
             sections"
      $ replay_arg
      $ fail_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
      $ trial_deadline_arg $ confidence_arg $ target_ci_arg $ ci_metric_arg
      $ ci_batch_arg $ ci_max_trials_arg $ prop_scale_arg $ prop_shift_arg
      $ prop_nonzero_arg $ prop_mix_arg)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Monte Carlo test-and-repair campaign: randomized fault injection, \
          controller-vs-reference differential oracle, independent \
          post-repair escape sweep, failure shrinking; emits a deterministic \
          JSON report.")
    term

(* ------------------------------------------------------------------ *)
(* explore: parallel design-space sweep *)

let do_explore spec_file jobs cache_dir resume pareto obs =
  match In_channel.with_open_bin spec_file In_channel.input_all with
  | exception Sys_error e ->
      Printf.eprintf "bisramgen: %s\n" e;
      1
  | text -> (
      let setup =
        let* spec =
          Result.map_error (fun e -> spec_file ^ ": " ^ e)
            (Bisram_explore.Spec.of_string text)
        in
        let* jobs = resolve_jobs jobs in
        let* () = arm obs in
        Ok (spec, jobs)
      in
      match setup with
      | Error e -> invalid_configuration e
      | Ok (spec, jobs) -> (
          let reporter =
            make_progress
              ~total:(Array.length (fst (Bisram_explore.Spec.expand spec)))
              ~label:"points" ~show_anomalies:false obs
          in
          let on_progress =
            Option.map
              (fun p ~done_ ~total:_ ->
                Progress.update p ~done_ ~escapes:0 ~divergences:0
                  ~tool_errors:0 ~clean:0)
              reporter
          in
          match
            Fun.protect
              ~finally:(fun () -> Option.iter Progress.finish reporter)
              (fun () ->
                Bisram_explore.Explore.run ~jobs ~cache_dir ~resume ?on_progress
                  spec)
          with
          | exception (Invalid_argument e | Failure e) -> invalid_configuration e
          | r ->
              (* stdout carries only the byte-identical report; cache
                 statistics and the --pareto table go to stderr *)
              print_string (Bisram_explore.Explore.pretty_json_string r);
              let module E = Bisram_explore.Explore in
              let module C = Bisram_explore.Cache in
              let cs = r.E.cache_stats in
              let evals = E.evaluations r in
              let rate =
                if evals = 0 then 100.0
                else 100.0 *. float_of_int cs.C.st_hits /. float_of_int evals
              in
              Printf.eprintf
                "explore: %d point(s), %d evaluation(s): %d hit(s), %d \
                 miss(es), %d shared (%.1f%% hit rate)\n"
                (Array.length r.E.points)
                evals cs.C.st_hits cs.C.st_misses cs.C.st_shared rate;
              if
                cs.C.st_quarantined > 0 || cs.C.st_reaped_tmp > 0
                || cs.C.st_io_errors > 0
              then
                Printf.eprintf
                  "explore: cache self-heal: %d quarantined, %d tmp reaped, \
                   %d io error(s)\n"
                  cs.C.st_quarantined cs.C.st_reaped_tmp cs.C.st_io_errors;
              if pareto then prerr_string (E.summary_table r);
              export obs;
              0))

let explore_cmd =
  let spec_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Sweep specification: a key = value file with comma-separated \
             ranges over words/bpw/bpc/spares, mean_defects, alpha and \
             lambda, plus shared process/march/drive/strap/chip scalars, an \
             optional evaluator list and a campaign_trials budget.")
  in
  let cache_arg =
    Arg.(
      value
      & opt string ".bisram-explore.cache"
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed evaluation cache directory (created if \
             missing).  Entries are always written; they are only read back \
             with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Reuse cache entries from earlier runs: interrupted or repeated \
             sweeps recompute only what is missing.  The report is \
             byte-identical to a cache-cold run.")
  in
  let pareto_arg =
    Arg.(
      value & flag
      & info [ "pareto" ]
          ~doc:
            "Print the Pareto frontier and best-spares tables human-readably \
             to stderr (stdout still carries the JSON report).")
  in
  let term =
    Term.(
      const do_explore $ spec_arg $ jobs_arg $ cache_arg $ resume_arg
      $ pareto_arg
      $ observability_term ~spans:"per-point and per-evaluator spans")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Design-space exploration: expand a declarative sweep spec into \
          the config lattice, evaluate every point (area, yield, cost, \
          reliability, optional campaign) across worker domains with \
          on-disk memoization, and report the grid, its Pareto frontier \
          and the best spare count per organization as deterministic JSON.")
    term

(* ------------------------------------------------------------------ *)
(* analyze: yield / reliability / power what-if *)

let do_analyze cfg =
  with_config cfg @@ fun cfg ->
  let d = Compiler.compile cfg in
  let org = cfg.Config.org in
  Printf.printf "analysis for %s\n\n"
    (Format.asprintf "%a" Config.pp cfg);
  (* yield *)
  let geom = Compiler.yield_geometry d in
  Printf.printf "module yield (alpha = 2):\n";
  List.iter
    (fun n ->
      Printf.printf "  %5.1f mean defects -> %.4f\n" n
        (Bisram_yield.Repairable.yield geom ~mean_defects:n ~alpha:2.0))
    [ 0.5; 1.0; 2.0; 5.0; 10.0 ];
  (* 2D line-cover yield, shown only when spare columns exist *)
  if org.Org.spare_cols > 0 then begin
    let g2 =
      Bisram_yield.Repairable.make2 ~rows:(Org.rows org)
        ~cols:(Org.cols org) ~spare_rows:org.Org.spares
        ~spare_cols:org.Org.spare_cols
    in
    Printf.printf "\n2D (BIRA) array yield (alpha = 2):\n";
    List.iter
      (fun n ->
        Printf.printf "  %5.1f mean defects -> %.4f\n" n
          (Bisram_yield.Repairable.yield2 g2 ~mean_defects:n ~alpha:2.0))
      [ 0.5; 1.0; 2.0; 5.0; 10.0 ]
  end;
  (* reliability *)
  let lambda = 1e-10 in
  let rel = Bisram_rel.Reliability.of_org org ~lambda in
  Printf.printf
    "\nreliability (lambda = %g /bit/h): R(1y) = %.5f, R(10y) = %.5f, \
     MTTF = %.3g h\n"
    lambda
    (Bisram_rel.Reliability.reliability rel 8760.0)
    (Bisram_rel.Reliability.reliability rel 87600.0)
    (Bisram_rel.Reliability.mttf rel);
  (* power *)
  let pw =
    Bisram_sram.Power.estimate cfg.Config.process org
      ~drive:(float_of_int cfg.Config.drive)
  in
  Printf.printf "\npower: %s\n" (Format.asprintf "%a" Bisram_sram.Power.pp pw);
  List.iter
    (fun mhz ->
      Printf.printf "  Icc at %3.0f MHz: %.1f mA\n" mhz
        (Bisram_sram.Power.supply_current pw ~frequency_hz:(mhz *. 1e6)
        *. 1e3))
    [ 25.0; 50.0; 100.0 ];
  0

let analyze_cmd =
  let term =
    Term.(
      const do_analyze $ config_term ~words:4096 ~bpw:128 ~bpc:8)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Yield, reliability and power analysis for a configuration.")
    term

(* ------------------------------------------------------------------ *)
(* listings *)

let processes_cmd =
  let run () =
    List.iter (fun p -> Format.printf "%a@." Pr.pp p) Pr.all;
    0
  in
  Cmd.v (Cmd.info "processes" ~doc:"List bundled CMOS processes.")
    Term.(const run $ const ())

let marches_cmd =
  let run () =
    List.iter (fun m -> Format.printf "%a@." March.pp m) Alg.all;
    0
  in
  Cmd.v (Cmd.info "marches" ~doc:"List bundled march algorithms.")
    Term.(const run $ const ())

let () =
  (* chaos harness: armed only when BISRAM_CHAOS_* variables are set in
     the environment; a production invocation costs one getenv here and
     disarmed Atomic.gets at the seams *)
  Bisram_chaos.Chaos.arm_from_env ();
  let info =
    Cmd.info "bisramgen" ~version:"1.0.0"
      ~doc:"Physical design tool for built-in self-repairable static RAMs"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ compile_cmd
          ; selftest_cmd
          ; campaign_cmd
          ; explore_cmd
          ; analyze_cmd
          ; processes_cmd
          ; marches_cmd
          ]))
