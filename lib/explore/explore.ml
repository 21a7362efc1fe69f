module Org = Bisram_sram.Org
module Compiler = Bisram_core.Compiler
module Repairable = Bisram_yield.Repairable
module Stapper = Bisram_yield.Stapper
module Mpr = Bisram_cost.Mpr
module Chips = Bisram_cost.Chips
module Rel = Bisram_rel.Reliability
module Campaign = Bisram_campaign.Campaign
module Pool = Bisram_parallel.Pool
module Obs = Bisram_obs.Obs
module J = Bisram_obs.Json

type result = {
  spec : Spec.t;
  points : Spec.point array;
  evals : (string * J.t) list array;
  skipped : int;
  cache_stats : Cache.stats;
}

(* ------------------------------------------------------------------ *)
(* evaluators: each one a pure function of its Spec.cache_key inputs *)

let area_json (d : Compiler.t) =
  let a = d.Compiler.area in
  J.Obj
    [ ("module_mm2", J.Float a.Compiler.module_mm2)
    ; ("base_module_mm2", J.Float a.Compiler.base_module_mm2)
    ; ("logic_mm2", J.Float a.Compiler.logic_mm2)
    ; ("spare_mm2", J.Float a.Compiler.spare_mm2)
    ; ("overhead_logic_pct", J.Float a.Compiler.overhead_logic_pct)
    ; ("overhead_total_pct", J.Float a.Compiler.overhead_total_pct)
    ; ("growth_factor", J.Float a.Compiler.growth_factor)
    ; ("logic_fraction", J.Float (a.Compiler.logic_mm2 /. a.Compiler.module_mm2))
    ]

let yield_json (p : Spec.point) (d : Compiler.t) =
  let g = Compiler.yield_geometry d in
  let y = Repairable.yield g ~mean_defects:p.Spec.mean_defects ~alpha:p.Spec.alpha in
  let yp = Repairable.yield_poisson g ~mean_defects:p.Spec.mean_defects in
  let bare =
    Stapper.stapper_yield ~mean_defects:p.Spec.mean_defects ~alpha:p.Spec.alpha
  in
  (* 2D line-cover yield, only for organizations that carry spare
     columns (row-only orgs keep the exact historical rendering) *)
  let two_d =
    if p.Spec.org.Org.spare_cols = 0 then []
    else
      let g2 =
        Repairable.make2 ~rows:(Org.rows p.Spec.org)
          ~cols:(Org.cols p.Spec.org) ~spare_rows:p.Spec.org.Org.spares
          ~spare_cols:p.Spec.org.Org.spare_cols
      in
      [ ( "repairable2"
        , J.Float
            (Repairable.yield2 g2 ~mean_defects:p.Spec.mean_defects
               ~alpha:p.Spec.alpha) )
      ]
  in
  J.Obj
    ([ ("repairable", J.Float y)
     ; ("repairable_poisson", J.Float yp)
     ; ("stapper_bare", J.Float bare)
     ; ("gain_vs_bare", J.Float (y /. bare))
     ]
    @ two_d)

let cost_json (spec : Spec.t) (p : Spec.point) (d : Compiler.t) =
  let a = d.Compiler.area in
  let chip = spec.Spec.chip in
  let params =
    { Mpr.spares = p.Spec.org.Org.spares
    ; cache_rows = Org.rows p.Spec.org
    ; area_overhead = max 0.0 (a.Compiler.overhead_total_pct /. 100.0)
    ; alpha = p.Spec.alpha
    }
  in
  match Mpr.die_bisr chip params with
  | None ->
      J.Obj
        [ ("chip", J.String chip.Chips.name); ("available", J.Bool false) ]
  | Some bisr ->
      let plain = Mpr.die_plain chip in
      let tp = Mpr.totals_plain chip in
      let tb =
        match Mpr.totals_bisr chip params with
        | Some t -> t
        | None -> assert false (* die_bisr just succeeded *)
      in
      J.Obj
        [ ("chip", J.String chip.Chips.name)
        ; ("available", J.Bool true)
        ; ("cost_per_good_die", J.Float bisr.Mpr.cost_per_good_die)
        ; ("plain_cost_per_good_die", J.Float plain.Mpr.cost_per_good_die)
        ; ("die_yield", J.Float bisr.Mpr.die_yield)
        ; ("plain_die_yield", J.Float plain.Mpr.die_yield)
        ; ("dies_per_wafer", J.Int bisr.Mpr.dies_per_wafer)
        ; ("chip_total", J.Float tb.Mpr.total)
        ; ("plain_chip_total", J.Float tp.Mpr.total)
        ; ( "reduction_pct"
          , J.Float (100.0 *. (tp.Mpr.total -. tb.Mpr.total) /. tp.Mpr.total) )
        ]

let year_h = 8760.0

let reliability_json (p : Spec.point) =
  let c = Rel.of_org p.Spec.org ~lambda:p.Spec.lambda in
  let mttf = Rel.mttf c in
  let crossover =
    (* Fig. 5: the fewer-spares curve starts higher (spares are failure
       sites) and is overtaken later; report the age where the 4-spare
       baseline of the same organization crosses this config *)
    if p.Spec.org.Org.spares = 4 then J.Null
    else
      match
        Org.make ~spares:4 ~words:p.Spec.org.Org.words ~bpw:p.Spec.org.Org.bpw
          ~bpc:p.Spec.org.Org.bpc ()
      with
      | exception Invalid_argument _ -> J.Null
      | base_org -> (
          let base = Rel.of_org base_org ~lambda:p.Spec.lambda in
          let fewer, more =
            if p.Spec.org.Org.spares < 4 then (c, base) else (base, c)
          in
          let t1 = 20.0 *. Float.max mttf (Rel.mttf base) in
          match Rel.crossover fewer more ~t0:1.0 ~t1 ~steps:4000 with
          | Some t -> J.Float t
          | None -> J.Null)
  in
  J.Obj
    [ ("mttf_h", J.Float mttf)
    ; ("r_1y", J.Float (Rel.reliability c year_h))
    ; ("r_10y", J.Float (Rel.reliability c (10.0 *. year_h)))
    ; ("crossover_vs_4_spares_h", crossover)
    ]

let campaign_json (spec : Spec.t) (p : Spec.point) =
  if not (Org.simulable p.Spec.org) then
    J.Obj [ ("simulable", J.Bool false) ]
  else begin
    let repair =
      match Campaign.repair_of_name spec.Spec.repair with
      | Some r -> r
      | None ->
          (* Spec.of_string validated the spelling already *)
          invalid_arg ("Explore: unknown repair strategy " ^ spec.Spec.repair)
    in
    let cfg =
      Campaign.make_config ~org:p.Spec.org ~march:spec.Spec.march
        ~mode:(Campaign.Clustered { mean = p.Spec.mean_defects; alpha = p.Spec.alpha })
        ~trials:spec.Spec.campaign_trials ~seed:spec.Spec.campaign_seed
        ~repair ~shrink:false ()
    in
    (* sequential inside the pool worker: points are the parallel axis *)
    let r = Campaign.run ~jobs:1 cfg in
    J.Obj
      ([ ("simulable", J.Bool true)
       ; ("trials", J.Int r.Campaign.trials_run)
       ]
      @ (* only spelled for a non-default strategy, so cached row-tlb
           evaluations from older sweeps keep their exact rendering *)
      (match repair with
      | Campaign.Row_tlb -> []
      | _ -> [ ("repair", J.String (Campaign.repair_name repair)) ])
      @ [ ("repair_rate_two_pass", J.Float r.Campaign.observed_yield_two_pass)
        ; ("repair_rate_iterated", J.Float r.Campaign.observed_yield_iterated)
        ; ("analytic_yield", J.Float (Campaign.analytic_yield cfg))
        ; ("escapes", J.Int (List.length r.Campaign.escapes))
        ; ("divergences", J.Int (List.length r.Campaign.divergences))
        ])
  end

let compute spec p design = function
  | "area" -> area_json (Lazy.force design)
  | "yield" -> yield_json p (Lazy.force design)
  | "cost" -> cost_json spec p (Lazy.force design)
  | "reliability" -> reliability_json p
  | "campaign" -> campaign_json spec p
  | e -> invalid_arg ("Explore: unknown evaluator " ^ e)

(* ------------------------------------------------------------------ *)
(* the parallel sweep *)

let run ?(jobs = 1) ?cache_dir ?(resume = false) ?on_progress spec =
  if jobs < 1 then invalid_arg "Explore.run: jobs must be >= 1";
  let points, skipped = Spec.expand spec in
  let cache = Cache.create ?dir:cache_dir ~resume () in
  Obs.emit ~domain:"explore" "run.start"
    [ ("points", J.Int (Array.length points))
    ; ("skipped", J.Int skipped)
    ; ("evaluators", J.Int (List.length spec.Spec.evaluators))
    ; ("jobs", J.Int jobs)
    ; ("cached", J.Bool (cache_dir <> None))
    ];
  (* live progress: one tick per completed point, pushed from the
     completing worker's domain; write-only, never read by the report *)
  let prog_done = Atomic.make 0 in
  let tick () =
    match on_progress with
    | None -> ()
    | Some f -> f ~done_:(Atomic.fetch_and_add prog_done 1 + 1)
                  ~total:(Array.length points)
  in
  let work i =
    let p = points.(i) in
    Obs.span ~cat:"explore" ~arg:("point", i) "point" (fun () ->
        Obs.incr "explore.points";
        (* one lazily compiled design per point, shared by the area,
           yield and cost evaluators; never forced when all three hit
           the cache *)
        let design = lazy (Compiler.compile (Spec.config_of_point spec p)) in
        let evs =
          List.map
            (fun ev ->
              let key = Spec.cache_key spec p ~evaluator:ev in
              let v =
                Obs.span ~cat:"explore" ~arg:("point", i) ev (fun () ->
                    Cache.memo cache ~key (fun () -> compute spec p design ev))
              in
              (ev, v))
            spec.Spec.evaluators
        in
        tick ();
        evs)
  in
  let completed =
    Pool.map_result ~jobs ?probe:(Obs.pool_probe ()) (Array.length points) work
  in
  (* no stop condition, so every slot is filled; a point that raised
     fails the run with its own exception, the lowest index first *)
  let evals =
    Array.map
      (function
        | Some { Pool.outcome = Ok e; _ } -> e
        | Some { Pool.outcome = Error f; _ } ->
            Printexc.raise_with_backtrace f.Pool.f_exn f.Pool.f_backtrace
        | None -> assert false)
      completed
  in
  let st = Cache.stats cache in
  Obs.add "explore.cache_hits" st.Cache.st_hits;
  Obs.add "explore.cache_misses" st.Cache.st_misses;
  Obs.emit ~domain:"explore" "run.end"
    [ ("points", J.Int (Array.length points))
    ; ("cache_hits", J.Int st.Cache.st_hits)
    ; ("cache_misses", J.Int st.Cache.st_misses)
    ; ("cache_quarantined", J.Int st.Cache.st_quarantined)
    ];
  { spec; points; evals; skipped; cache_stats = st }

let evaluations r =
  Array.length r.points * List.length r.spec.Spec.evaluators

(* ------------------------------------------------------------------ *)
(* objective extraction *)

let num = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let eval_field r i ~evaluator ~field =
  match List.assoc_opt evaluator r.evals.(i) with
  | None -> None
  | Some j -> Option.bind (J.member field j) num

(* (objective display name, evaluator, field, direction) — the
   frontier of the tentpole: cost, yield, MTTF, area overhead *)
let objective_specs =
  [ ("cost_per_good_die", "cost", "cost_per_good_die", Pareto.Minimize)
  ; ("repairable_yield", "yield", "repairable", Pareto.Maximize)
  ; ("repair_rate", "campaign", "repair_rate_iterated", Pareto.Maximize)
  ; ("mttf_h", "reliability", "mttf_h", Pareto.Maximize)
  ; ("overhead_total_pct", "area", "overhead_total_pct", Pareto.Minimize)
  ]

let active_objectives r =
  List.filter_map
    (fun (name, ev, field, direction) ->
      if List.mem ev r.spec.Spec.evaluators then
        Some
          (Pareto.objective ~name ~direction (fun i ->
               eval_field r i ~evaluator:ev ~field))
      else None)
    objective_specs

let pareto_indices r =
  match active_objectives r with
  | [] -> []
  | objectives ->
      Pareto.frontier ~objectives
        (List.init (Array.length r.points) (fun i -> i))

(* ------------------------------------------------------------------ *)
(* best spares per organization (the paper's conclusions table) *)

type group = {
  g_words : int;
  g_bpw : int;
  g_bpc : int;
  g_mean : float;
  g_alpha : float;
  g_lambda : float;
  mutable members : int list;  (** point indices, reverse lattice order *)
}

let groups_of r =
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iter
    (fun (p : Spec.point) ->
      let key =
        ( p.Spec.org.Org.words, p.Spec.org.Org.bpw, p.Spec.org.Org.bpc
        , p.Spec.mean_defects, p.Spec.alpha, p.Spec.lambda )
      in
      match Hashtbl.find_opt tbl key with
      | Some g -> g.members <- p.Spec.index :: g.members
      | None ->
          let g =
            { g_words = p.Spec.org.Org.words
            ; g_bpw = p.Spec.org.Org.bpw
            ; g_bpc = p.Spec.org.Org.bpc
            ; g_mean = p.Spec.mean_defects
            ; g_alpha = p.Spec.alpha
            ; g_lambda = p.Spec.lambda
            ; members = [ p.Spec.index ]
            }
          in
          Hashtbl.add tbl key g;
          order := g :: !order)
    r.points;
  let gs = List.rev !order in
  List.iter (fun g -> g.members <- List.rev g.members) gs;
  gs

(* ranking metric: the first objective every group member has a value
   for, in the order cost > yield > mttf > overhead; spares count
   breaks ties so the cheaper redundancy wins *)
let ranking_metric r members =
  List.find_opt
    (fun (_, ev, field, _) ->
      List.mem ev r.spec.Spec.evaluators
      && List.for_all
           (fun i -> eval_field r i ~evaluator:ev ~field <> None)
           members)
    objective_specs

let rank_members r members =
  match ranking_metric r members with
  | None ->
      ( "spares"
      , List.sort
          (fun a b ->
            compare r.points.(a).Spec.org.Org.spares
              r.points.(b).Spec.org.Org.spares)
          members )
  | Some (name, ev, field, direction) ->
      let value i =
        match eval_field r i ~evaluator:ev ~field with
        | Some v -> v
        | None -> assert false (* ranking_metric checked every member *)
      in
      let cmp a b =
        let va = value a and vb = value b in
        let c =
          match direction with
          | Pareto.Minimize -> compare va vb
          | Pareto.Maximize -> compare vb va
        in
        if c <> 0 then c
        else
          compare r.points.(a).Spec.org.Org.spares
            r.points.(b).Spec.org.Org.spares
      in
      (name, List.sort cmp members)

(* ------------------------------------------------------------------ *)
(* report *)

let org_json (org : Org.t) =
  J.Obj
    ([ ("words", J.Int org.Org.words)
     ; ("bpw", J.Int org.Org.bpw)
     ; ("bpc", J.Int org.Org.bpc)
     ; ("spares", J.Int org.Org.spares)
     ]
    @
    (* spelled only when present, like the campaign report's org echo *)
    if org.Org.spare_cols > 0 then
      [ ("spare_cols", J.Int org.Org.spare_cols) ]
    else [])

let objective_fields r i =
  List.map
    (fun (name, ev, field, _) ->
      ( name
      , if List.mem ev r.spec.Spec.evaluators then
          match eval_field r i ~evaluator:ev ~field with
          | Some v -> J.Float v
          | None -> J.Null
        else J.Null ))
    objective_specs

let point_json r i =
  let p = r.points.(i) in
  J.Obj
    [ ("index", J.Int p.Spec.index)
    ; ("org", org_json p.Spec.org)
    ; ("mean_defects", J.Float p.Spec.mean_defects)
    ; ("alpha", J.Float p.Spec.alpha)
    ; ("lambda", J.Float p.Spec.lambda)
    ; ("evals", J.Obj (List.map (fun (ev, v) -> (ev, v)) r.evals.(i)))
    ]

let best_spares_json r =
  groups_of r
  |> List.map (fun g ->
         let ranked_by, ranking = rank_members r g.members in
         let best =
           match ranking with
           | i :: _ -> J.Int r.points.(i).Spec.org.Org.spares
           | [] -> J.Null
         in
         J.Obj
           [ ("words", J.Int g.g_words)
           ; ("bpw", J.Int g.g_bpw)
           ; ("bpc", J.Int g.g_bpc)
           ; ("mean_defects", J.Float g.g_mean)
           ; ("alpha", J.Float g.g_alpha)
           ; ("lambda", J.Float g.g_lambda)
           ; ("ranked_by", J.String ranked_by)
           ; ( "ranking"
             , J.List
                 (List.map
                    (fun i ->
                      let org = r.points.(i).Spec.org in
                      let sc =
                        if org.Org.spare_cols > 0 then
                          [ ("spare_cols", J.Int org.Org.spare_cols) ]
                        else []
                      in
                      J.Obj
                        ((("spares", J.Int org.Org.spares) :: sc)
                        @ ("index", J.Int i)
                          :: objective_fields r i))
                    ranking) )
           ; ("best_spares", best)
           ])

let report_json r =
  J.Obj
    [ ("schema", J.String "bisram-explore/1")
    ; ("spec", Spec.to_json r.spec)
    ; ("points_total", J.Int (Array.length r.points))
    ; ("combinations_skipped", J.Int r.skipped)
    ; ( "points"
      , J.List (List.init (Array.length r.points) (fun i -> point_json r i)) )
    ; ( "pareto"
      , J.List
          (List.map
             (fun i -> J.Obj (("index", J.Int i) :: objective_fields r i))
             (pareto_indices r)) )
    ; ("best_spares", J.List (best_spares_json r))
    ]

let json_string r = J.to_string (report_json r)
let pretty_json_string r = J.to_pretty_string (report_json r)

(* ------------------------------------------------------------------ *)
(* human-readable summary (stderr side channel; never in the report) *)

let summary_table r =
  let b = Buffer.create 1024 in
  let fmt_opt = function
    | Some v -> Printf.sprintf "%12.4g" v
    | None -> Printf.sprintf "%12s" "-"
  in
  let objective_names = List.map (fun (n, _, _, _) -> n) objective_specs in
  Buffer.add_string b
    (Printf.sprintf "pareto frontier (%d of %d points)\n"
       (List.length (pareto_indices r))
       (Array.length r.points));
  Buffer.add_string b
    (Printf.sprintf "%6s %-30s %8s" "index" "org" "n-bar");
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf " %12s" n))
    objective_names;
  Buffer.add_char b '\n';
  List.iter
    (fun i ->
      let p = r.points.(i) in
      Buffer.add_string b
        (Printf.sprintf "%6d %-30s %8.3g" i
           (Format.asprintf "%a" Org.pp p.Spec.org)
           p.Spec.mean_defects);
      List.iter
        (fun (_, ev, field, _) ->
          Buffer.add_string b
            (Printf.sprintf " %s" (fmt_opt (eval_field r i ~evaluator:ev ~field))))
        objective_specs;
      Buffer.add_char b '\n')
    (pareto_indices r);
  Buffer.add_string b "\nbest spares per organization\n";
  Buffer.add_string b
    (Printf.sprintf "%-22s %8s %8s  %s\n" "org (words x bpw/bpc)" "n-bar"
       "best" "ranking (by first available of cost/yield/mttf)");
  List.iter
    (fun g ->
      let ranked_by, ranking = rank_members r g.members in
      let spares_of i = r.points.(i).Spec.org.Org.spares in
      Buffer.add_string b
        (Printf.sprintf "%-22s %8.3g %8s  %s (by %s)\n"
           (Printf.sprintf "%dw x %db/%d" g.g_words g.g_bpw g.g_bpc)
           g.g_mean
           (match ranking with
           | i :: _ -> string_of_int (spares_of i)
           | [] -> "-")
           (String.concat " > "
              (List.map (fun i -> string_of_int (spares_of i)) ranking))
           ranked_by))
    (groups_of r);
  Buffer.contents b
