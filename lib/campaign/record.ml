(* Trial records, the unit of aggregation and checkpointing: how one
   trial's result is computed and classified, its JSON codec (the
   report's and the checkpoint's wire format) and checkpoint I/O. *)

open Trial
module J = Bisram_obs.Json

(* A trial's outcome class is what the report histograms and the
   checkpoint records need: the [Repair.outcome] without its repaired
   row list, which never reaches the report, so serializing it would
   only widen the checkpoint format. *)
type outcome_class = Passed_clean | Repaired | Unsuccessful of Repair.reason

let outcome_class : Repair.outcome -> outcome_class = function
  | Repair.Passed_clean -> Passed_clean
  | Repair.Repaired _ -> Repaired
  | Repair.Repair_unsuccessful r -> Unsuccessful r

type failure_kind = Silent_escape | Oracle_divergence

type failure = {
  f_trial : int;
  f_seed : int;
  f_kind : failure_kind;
  f_flow : string;  (** "two-pass", "iterated" or "oracle" *)
  f_detail : string;
  f_faults : Fault.t list;
  f_shrunk : Fault.t list;
}

type tool_error = {
  te_trial : int;
  te_seed : int;
  te_error : string;
}

let failure_of_anomaly ?memo cfg trial anomaly =
  let f_kind, f_flow, f_detail =
    match anomaly with
    | Escape { flow; mismatches } ->
        Obs.incr "campaign.escapes";
        let first =
          match mismatches with
          | m :: _ -> Format.asprintf "; first: %a" Sweep.pp_mismatch m
          | [] -> ""
        in
        ( Silent_escape
        , flow_name flow
        , Printf.sprintf "%d mismatching read(s)%s" (List.length mismatches)
            first )
    | Divergence { detail } ->
        Obs.incr "campaign.divergences";
        (Oracle_divergence, "oracle", detail)
  in
  { f_trial = trial.t_index
  ; f_seed = trial.t_seed
  ; f_kind
  ; f_flow
  ; f_detail
  ; f_faults = trial.t_faults
  ; f_shrunk =
      Obs.span ~cat:"campaign" ~arg:("trial", trial.t_index) "shrink"
        (* only [run] computes records, after [check_zero_fault_flow];
           most records have no memo, and their closure holds none *)
        (match memo with
        | None ->
            fun () ->
              shrink_with cfg ~fault_free_clean:true anomaly trial.t_faults
        | Some memo ->
            fun () ->
              shrink_with cfg ~memo ~fault_free_clean:true anomaly
                trial.t_faults)
  }

(* ------------------------------------------------------------------ *)
(* JSON rendering (also the checkpoint wire format) *)

let cell_json (c : Fault.cell) =
  J.Obj [ ("row", J.Int c.Fault.row); ("col", J.Int c.Fault.col) ]

let fault_json = function
  | Fault.Stuck_at (c, v) ->
      J.Obj
        [ ("class", J.String "SAF"); ("cell", cell_json c); ("value", J.Bool v) ]
  | Fault.Transition (c, up) ->
      J.Obj
        [ ("class", J.String "TF"); ("cell", cell_json c); ("rising", J.Bool up) ]
  | Fault.Stuck_open c ->
      J.Obj [ ("class", J.String "SOF"); ("cell", cell_json c) ]
  | Fault.Coupling_inversion { aggressor; victim } ->
      J.Obj
        [ ("class", J.String "CFin")
        ; ("aggressor", cell_json aggressor)
        ; ("victim", cell_json victim)
        ]
  | Fault.Coupling_idempotent { aggressor; rising; victim; forces } ->
      J.Obj
        [ ("class", J.String "CFid")
        ; ("aggressor", cell_json aggressor)
        ; ("rising", J.Bool rising)
        ; ("victim", cell_json victim)
        ; ("forces", J.Bool forces)
        ]
  | Fault.State_coupling { aggressor; when_state; victim; reads_as } ->
      J.Obj
        [ ("class", J.String "CFst")
        ; ("aggressor", cell_json aggressor)
        ; ("when_state", J.Bool when_state)
        ; ("victim", cell_json victim)
        ; ("reads_as", J.Bool reads_as)
        ]
  | Fault.Data_retention (c, v) ->
      J.Obj
        [ ("class", J.String "DRF")
        ; ("cell", cell_json c)
        ; ("decays_to", J.Bool v)
        ]

let mode_json = function
  | Uniform n -> J.Obj [ ("kind", J.String "uniform"); ("faults", J.Int n) ]
  | Poisson mean ->
      J.Obj [ ("kind", J.String "poisson"); ("mean", J.Float mean) ]
  | Clustered { mean; alpha } ->
      J.Obj
        [ ("kind", J.String "clustered")
        ; ("mean", J.Float mean)
        ; ("alpha", J.Float alpha)
        ]

let mix_json m =
  J.Obj (List.map (fun (k, w) -> (k, J.Float w)) (Injection.mix_weights m))

let proposal_json (p : Proposal.t) =
  let count =
    match p.Proposal.count with
    | Proposal.Count_nominal -> J.Obj [ ("kind", J.String "nominal") ]
    | Proposal.Scaled { scale; shift } ->
        J.Obj
          [ ("kind", J.String "scaled")
          ; ("scale", J.Float scale)
          ; ("shift", J.Float shift)
          ]
    | Proposal.Stratified { nonzero } ->
        J.Obj
          [ ("kind", J.String "stratified"); ("nonzero", J.Float nonzero) ]
  in
  J.Obj
    [ ("count", count)
    ; ("mix", match p.Proposal.mix with None -> J.Null | Some m -> mix_json m)
    ]

let config_json cfg =
  J.Obj
    ([ ( "org"
       , J.Obj
           ([ ("words", J.Int cfg.org.Org.words)
            ; ("bpw", J.Int cfg.org.Org.bpw)
            ; ("bpc", J.Int cfg.org.Org.bpc)
            ; ("spares", J.Int cfg.org.Org.spares)
            ]
           (* like [proposal] below: the key appears only when the
              organization actually has spare columns, so every
              row-only config keeps its historical bytes *)
           @
           if cfg.org.Org.spare_cols > 0 then
             [ ("spare_cols", J.Int cfg.org.Org.spare_cols) ]
           else []) )
     ; ("march", J.String cfg.march.March.name)
     ; ("mix", mix_json cfg.mix)
     ; ("mode", mode_json cfg.mode)
     ]
    (* rendered only when armed: estimation-off configs keep their
       pre-proposal bytes, so reports and checkpoint compat strings
       from earlier versions stay valid *)
    @ (match cfg.proposal with
      | None -> []
      | Some p -> [ ("proposal", proposal_json p) ])
    @ (match cfg.repair with
      | Row_tlb -> []
      | r -> [ ("repair", J.String (repair_name r)) ])
    @ [ ("trials", J.Int cfg.trials)
      ; ("seed", J.Int cfg.seed)
      ; ( "max_seconds"
        , match cfg.max_seconds with None -> J.Null | Some s -> J.Float s )
      ; ("shrink", J.Bool cfg.shrink)
      ; ("max_rounds", J.Int cfg.max_rounds)
      ])

(* the record spelling of each failure kind *)
let kind_names =
  [ (Silent_escape, "escape"); (Oracle_divergence, "divergence") ]

let failure_json f =
  J.Obj
    [ ("trial", J.Int f.f_trial)
    ; ("seed", J.Int f.f_seed)
    ; ("kind", J.String (List.assoc f.f_kind kind_names))
    ; ("flow", J.String f.f_flow)
    ; ("detail", J.String f.f_detail)
    ; ("faults", J.List (List.map fault_json f.f_faults))
    ; ("shrunk", J.List (List.map fault_json f.f_shrunk))
    ]

let tool_error_json e =
  J.Obj
    [ ("trial", J.Int e.te_trial)
    ; ("seed", J.Int e.te_seed)
    ; ("error", J.String e.te_error)
    ]

(* ------------------------------------------------------------------ *)
(* JSON parsing (checkpoint resume)

   Exact inverses of the renderers above: a record that round-trips
   through parse + re-render yields the same bytes, which is what makes
   a resumed report byte-identical to an uninterrupted run.  Parsers
   are total — any unexpected shape is [None], never an exception — so
   a corrupt checkpoint degrades to recomputation. *)

let ( let* ) = Option.bind

let field_int k j =
  match J.member k j with Some (J.Int i) -> Some i | _ -> None

let field_str k j =
  match J.member k j with Some (J.String s) -> Some s | _ -> None

let field_bool k j =
  match J.member k j with Some (J.Bool b) -> Some b | _ -> None

let field_list k j =
  match J.member k j with Some (J.List l) -> Some l | _ -> None

(* a variant field by its spelling in [names]; an unknown one is [None] *)
let field_enum names k j =
  let* name = field_str k j in
  List.find_map
    (fun (c, n) -> if String.equal n name then Some c else None)
    names

let all_opt f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Some (y :: acc))
    l (Some [])

let cell_of_json j =
  let* row = field_int "row" j in
  let* col = field_int "col" j in
  Some { Fault.row; col }

let field_cell k j =
  let* c = J.member k j in
  cell_of_json c

let fault_of_json j =
  let* cls = field_str "class" j in
  match cls with
  | "SAF" ->
      let* c = field_cell "cell" j in
      let* v = field_bool "value" j in
      Some (Fault.Stuck_at (c, v))
  | "TF" ->
      let* c = field_cell "cell" j in
      let* up = field_bool "rising" j in
      Some (Fault.Transition (c, up))
  | "SOF" ->
      let* c = field_cell "cell" j in
      Some (Fault.Stuck_open c)
  | "CFin" ->
      let* aggressor = field_cell "aggressor" j in
      let* victim = field_cell "victim" j in
      Some (Fault.Coupling_inversion { aggressor; victim })
  | "CFid" ->
      let* aggressor = field_cell "aggressor" j in
      let* rising = field_bool "rising" j in
      let* victim = field_cell "victim" j in
      let* forces = field_bool "forces" j in
      Some (Fault.Coupling_idempotent { aggressor; rising; victim; forces })
  | "CFst" ->
      let* aggressor = field_cell "aggressor" j in
      let* when_state = field_bool "when_state" j in
      let* victim = field_cell "victim" j in
      let* reads_as = field_bool "reads_as" j in
      Some (Fault.State_coupling { aggressor; when_state; victim; reads_as })
  | "DRF" ->
      let* c = field_cell "cell" j in
      let* v = field_bool "decays_to" j in
      Some (Fault.Data_retention (c, v))
  | _ -> None

let failure_of_json j =
  let* f_trial = field_int "trial" j in
  let* f_seed = field_int "seed" j in
  let* f_kind = field_enum kind_names "kind" j in
  let* f_flow = field_str "flow" j in
  let* f_detail = field_str "detail" j in
  let* faults = field_list "faults" j in
  let* shrunk = field_list "shrunk" j in
  let* f_faults = all_opt fault_of_json faults in
  let* f_shrunk = all_opt fault_of_json shrunk in
  Some { f_trial; f_seed; f_kind; f_flow; f_detail; f_faults; f_shrunk }

(* ------------------------------------------------------------------ *)
(* trial records: the unit of aggregation and checkpointing

   A record is everything the final report consumes from one trial —
   outcome classes, repair rounds, failure records — or the recorded
   tool error when the trial itself crashed.  [compute_record] is a
   deterministic function of (config, index), so records parsed back
   from a checkpoint are indistinguishable from recomputed ones.  The
   importance weight rides on the in-memory record only: the checkpoint
   does not carry it, and a resumed record's is recomputed. *)

type trial_record = {
  rc_index : int;
  rc_seed : int;
  rc_body : rc_body;
  rc_weight : float;  (** importance weight; 1 without a proposal *)
}

and rc_body =
  | Rc_ok of {
      rc_two_pass : outcome_class;
      rc_iterated : outcome_class;
      rc_rounds : int;
      rc_alloc : (int list * int list) option;
          (** BIRA spare allocation (rows, cols); [None] for the TLB
              flow and for unrepaired trials *)
      rc_failures : failure list;  (** per-trial, anomaly order *)
    }
  | Rc_error of string

(* the record spelling of each outcome class: its histogram key *)
let class_names =
  [ (Passed_clean, "passed_clean")
  ; (Repaired, "repaired")
  ; (Unsuccessful Repair.Too_many_faulty_rows, "too_many_faulty_rows")
  ; (Unsuccessful Repair.Fault_in_second_pass, "fault_in_second_pass")
  ]

let record_json r =
  let common = [ ("trial", J.Int r.rc_index); ("seed", J.Int r.rc_seed) ] in
  match r.rc_body with
  | Rc_ok o ->
      J.Obj
        (common
        @ [ ("two_pass", J.String (List.assoc o.rc_two_pass class_names))
          ; ("iterated", J.String (List.assoc o.rc_iterated class_names))
          ; ("rounds", J.Int o.rc_rounds)
          ]
        (* only BIRA trials carry an allocation, so TLB records keep
           their historical bytes *)
        @ (match o.rc_alloc with
          | None -> []
          | Some (rows, cols) ->
              [ ( "alloc"
                , J.Obj
                    [ ("rows", J.List (List.map (fun r -> J.Int r) rows))
                    ; ("cols", J.List (List.map (fun c -> J.Int c) cols))
                    ] )
              ])
        @ [ ("failures", J.List (List.map failure_json o.rc_failures)) ])
  | Rc_error e -> J.Obj (common @ [ ("error", J.String e) ])

(* The weight is left at 1: [load_checkpoint] recomputes it under a
   proposal. *)
let record_of_json j =
  let* rc_index = field_int "trial" j in
  let* rc_seed = field_int "seed" j in
  let record rc_body = Some { rc_index; rc_seed; rc_body; rc_weight = 1.0 } in
  match field_str "error" j with
  | Some e -> record (Rc_error e)
  | None ->
      let* rc_two_pass = field_enum class_names "two_pass" j in
      let* rc_iterated = field_enum class_names "iterated" j in
      let* rc_rounds = field_int "rounds" j in
      let* rc_alloc =
        match J.member "alloc" j with
        | None -> Some None
        | Some a ->
            let int_of = function J.Int i -> Some i | _ -> None in
            let* rl = field_list "rows" a in
            let* cl = field_list "cols" a in
            let* rows = all_opt int_of rl in
            let* cols = all_opt int_of cl in
            Some (Some (rows, cols))
      in
      let* failures = field_list "failures" j in
      let* rc_failures = all_opt failure_of_json failures in
      record
        (Rc_ok { rc_two_pass; rc_iterated; rc_rounds; rc_alloc; rc_failures })

let body_of_verdicts v rc_failures =
  Rc_ok
    { rc_two_pass = outcome_class v.controller
    ; rc_iterated = outcome_class v.iterated
    ; rc_rounds = v.rounds
    ; rc_alloc = v.alloc
    ; rc_failures
    }

(* The record of a trial whose whole flow was clean: what a zero-fault
   trial resolves to, and what [p_clean] counts.  Every zero-fault trial
   shares this one value, so most clean records are recognized by
   physical equality. *)
let clean_body =
  Rc_ok
    { rc_two_pass = Passed_clean
    ; rc_iterated = Passed_clean
    ; rc_rounds = 1
    ; rc_alloc = None
    ; rc_failures = []
    }

let is_clean body = body == clean_body || body = clean_body

(* Resolving a zero-fault trial to [clean_body] is sound only if the
   flow on a fault-free array is clean: a march that fails a fault-free
   cell, or a repair flow that arms a spare for one, would make every
   such record wrong.  [run] simulates that flow once and refuses the
   configuration otherwise. *)
let check_zero_fault_flow cfg =
  match run_faults cfg [] with
  | v, [] when is_clean (body_of_verdicts v []) -> ()
  | _ ->
      failwith
        (Printf.sprintf
           "Campaign.run: march %s (%s) is not clean on a fault-free array"
           cfg.march.March.name (March.to_string cfg.march))

(* One trial, at every pool-item width.  A trial that draws no fault is
   a pure function of the configuration, so its record is
   [clean_body] and no model is built; any other trial runs the full
   flow on the list it drew. *)
let compute_record cfg draw ~index =
  let seed = trial_seed cfg index in
  let simulated =
    Obs.span ~cat:"campaign" ~arg:("trial", index) "trial" (fun () ->
        match draw_seeded draw seed with
        | [] ->
            count_trial [];
            Obs.incr "campaign.zero_fault_trials";
            None
        | faults -> Some (run_drawn cfg ~index ~seed faults))
  in
  let rc_body =
    match simulated with
    | None -> clean_body
    | Some t ->
        (* escapes read off one sweep of one self-checked run;
           [List.map] shrinks the two-pass escape first *)
        let memo =
          match t.t_anomalies with
          | [ Escape { mismatches = m; _ }; Escape { mismatches = m'; _ } ]
            when m == m' -> Some (ref None)
          | _ -> None
        in
        body_of_verdicts t.t_verdicts
          (List.map (fun a -> failure_of_anomaly ?memo cfg t a) t.t_anomalies)
  in
  let faults = match simulated with None -> [] | Some t -> t.t_faults in
  { rc_index = index; rc_seed = seed; rc_body; rc_weight = weight_of cfg faults }

(* ------------------------------------------------------------------ *)
(* checkpoints *)

type checkpoint = {
  ck_path : string;
  ck_every : int;
  ck_resume : bool;
}

let checkpoint ~path ?(every = 0) ?(resume = false) () =
  if every < 0 then
    invalid_arg
      (Printf.sprintf "Campaign.checkpoint: every must be >= 0 (got %d)" every);
  { ck_path = path; ck_every = every; ck_resume = resume }

let checkpoint_schema = "bisram-campaign-checkpoint/1"

(* a verify-round count the config's flow can produce *)
let rounds_in_range cfg = function
  | Rc_ok o -> o.rc_rounds >= 0 && o.rc_rounds <= cfg.max_rounds
  | Rc_error _ -> true

(* The trial count and wall-clock budget may legitimately differ
   between the interrupted and the resuming invocation (a resume
   completes what a budget or kill cut short); everything that shapes a
   trial's outcome must match exactly. *)
let compat_json cfg = config_json { cfg with trials = 0; max_seconds = None }

let checkpoint_string cfg records =
  J.to_string
    (J.Obj
       [ ("schema", J.String checkpoint_schema)
       ; ("config", compat_json cfg)
       ; ("records", J.List (List.map record_json records))
       ])

(* Atomic temp + rename in the checkpoint's own directory: a kill at
   any instant leaves either the previous complete snapshot or the new
   one, never a torn file.  Write failures degrade to "no new
   checkpoint" — the campaign itself must never die to checkpointing. *)
let write_checkpoint cfg path records =
  match
    Bisram_obs.Atomic_file.write ~prefix:".ckpt-" path
      (checkpoint_string cfg records)
  with
  | () ->
      Obs.incr "campaign.checkpoints";
      Obs.emit ~domain:"campaign" "checkpoint.write"
        [ ("path", J.String path)
        ; ("records", J.Int (List.length records))
        ]
  | exception Sys_error e ->
      Obs.incr "campaign.checkpoint_write_failed";
      Obs.emit ~level:Obs.Warn ~domain:"campaign"
        "checkpoint.write_failed"
        [ ("path", J.String path); ("error", J.String e) ]

(* Load the maximal valid contiguous prefix of a checkpoint.  Any
   defect — unreadable file, parse error, schema or config mismatch, a
   record that is out of place or carries the wrong derived seed —
   degrades to a shorter prefix (or a cold start), never to an error:
   resuming from a damaged checkpoint just recomputes more.  Under a
   proposal, each record's weight is recomputed from its seed. *)
let load_checkpoint cfg draw path =
  let reject () =
    Obs.incr "campaign.checkpoint_rejected";
    [||]
  in
  if not (Sys.file_exists path) then [||]
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> reject ()
    | text -> (
        match J.of_string text with
        | Error _ -> reject ()
        | Ok doc -> (
            let schema_ok =
              match J.member "schema" doc with
              | Some (J.String s) -> String.equal s checkpoint_schema
              | _ -> false
            in
            let config_ok =
              match J.member "config" doc with
              | Some c -> String.equal (J.to_string c) (J.to_string (compat_json cfg))
              | None -> false
            in
            if not (schema_ok && config_ok) then reject ()
            else
              match J.member "records" doc with
              | Some (J.List l) ->
                  (* the records up to the first one out of place *)
                  List.to_seq l
                  |> Seq.mapi (fun i rj ->
                         match record_of_json rj with
                         | Some r
                           when r.rc_index = i
                                && r.rc_seed = trial_seed cfg i
                                && rounds_in_range cfg r.rc_body ->
                             Some
                               { r with
                                 rc_weight = redrawn_weight cfg draw r.rc_seed
                               }
                         | _ -> None)
                  |> Seq.take_while Option.is_some
                  |> Seq.filter_map Fun.id |> Array.of_seq
              | _ -> reject ()))
