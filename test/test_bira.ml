(* Tests for the 2D BIRA subsystem: the line-cover allocators against a
   brute-force oracle, the bounded fault map's packed/scalar extraction
   agreement, the 2D remap layer, the spare-column yield model, and the
   campaign-facing guarantees — row-tlb and bira-bnb golden bytes and
   jobs x lanes byte-identity for every allocator. *)

module Cover = Bisram_bira.Cover
module Fault_map = Bisram_bira.Fault_map
module Remap2d = Bisram_bira.Remap2d
module Bira = Bisram_bira.Bira
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen
module F = Bisram_faults.Fault
module Repairable = Bisram_yield.Repairable
module C = Bisram_campaign.Campaign

(* ------------------------------------------------------------------ *)
(* cover: deterministic cases *)

let solution = Alcotest.testable (fun ppf (s : Cover.solution) ->
    Format.fprintf ppf "rows %a cols %a"
      (Format.pp_print_list Format.pp_print_int) s.Cover.rep_rows
      (Format.pp_print_list Format.pp_print_int) s.Cover.rep_cols)
    ( = )

let verdict = Alcotest.testable (fun ppf -> function
    | Cover.Uncoverable -> Format.pp_print_string ppf "uncoverable"
    | Cover.Cover s -> Alcotest.pp solution ppf s)
    ( = )

let problem ?(rows = 8) ?(cols = 8) ~sr ~sc cells =
  { Cover.rows; cols; spare_rows = sr; spare_cols = sc; cells }

let test_cover_empty () =
  List.iter
    (fun (module A : Cover.Allocator) ->
      Alcotest.check verdict
        (A.name ^ " empty")
        (Cover.Cover { Cover.rep_rows = []; rep_cols = [] })
        (A.solve (problem ~sr:2 ~sc:2 [])))
    [ (module Cover.Greedy); (module Cover.Essential)
    ; (module Cover.Exhaustive)
    ]

let test_cover_must_repair () =
  (* row 3 holds three faults but only two column spares exist, so the
     row is forced; that exhausts the row budget, which in turn forces
     column 2 for the stray cell — the fixpoint must find both *)
  let p = problem ~sr:1 ~sc:2 [ (3, 0); (3, 4); (3, 6); (5, 2) ] in
  match Cover.must_repair p with
  | None -> Alcotest.fail "must_repair gave up"
  | Some (rs, cs, rest) ->
      Alcotest.(check (list int)) "forced rows" [ 3 ] rs;
      Alcotest.(check (list int)) "forced cols" [ 2 ] cs;
      Alcotest.(check (list (pair int int))) "residue" [] rest

let test_cover_uncoverable () =
  (* a 3x3 diagonal needs three lines; only two are available *)
  let p = problem ~sr:1 ~sc:1 [ (0, 0); (1, 1); (2, 2) ] in
  List.iter
    (fun (module A : Cover.Allocator) ->
      Alcotest.check verdict (A.name ^ " diagonal") Cover.Uncoverable
        (A.solve p))
    [ (module Cover.Greedy); (module Cover.Essential)
    ; (module Cover.Exhaustive)
    ]

let test_bnb_col_only () =
  (* a full column of faults with no spare rows *)
  let p = problem ~sr:0 ~sc:1 [ (0, 5); (3, 5); (7, 5) ] in
  Alcotest.check verdict "column repair"
    (Cover.Cover { Cover.rep_rows = []; rep_cols = [ 5 ] })
    (Cover.Exhaustive.solve p)

(* ------------------------------------------------------------------ *)
(* cover: properties against the brute-force oracle *)

let gen_problem =
  QCheck.Gen.(
    let* rows = int_range 2 6 and* cols = int_range 2 6 in
    let* sr = int_range 0 2 and* sc = int_range 0 2 in
    let* n = int_range 0 7 in
    let* cells =
      list_size (return n)
        (pair (int_range 0 (rows - 1)) (int_range 0 (cols - 1)))
    in
    let cells = List.sort_uniq compare cells in
    return { Cover.rows; cols; spare_rows = sr; spare_cols = sc; cells })

let arb_problem =
  QCheck.make gen_problem ~print:(fun p ->
      Printf.sprintf "%dx%d sr=%d sc=%d cells=[%s]" p.Cover.rows p.Cover.cols
        p.Cover.spare_rows p.Cover.spare_cols
        (String.concat "; "
           (List.map
              (fun (r, c) -> Printf.sprintf "(%d,%d)" r c)
              p.Cover.cells)))

let size (s : Cover.solution) =
  List.length s.Cover.rep_rows + List.length s.Cover.rep_cols

(* the acceptance property: branch-and-bound matches the brute-force
   optimum — same coverability verdict, same minimal line count, and a
   genuine cover *)
let prop_bnb_optimal =
  QCheck.Test.make ~name:"Exhaustive = brute-force optimal" ~count:500
    arb_problem (fun p ->
      match (Cover.Exhaustive.solve p, Cover.brute_force p) with
      | Cover.Uncoverable, Cover.Uncoverable -> true
      | Cover.Cover s, Cover.Cover o ->
          Cover.covers p s && size s = size o
      | Cover.Cover _, Cover.Uncoverable
      | Cover.Uncoverable, Cover.Cover _ -> false)

(* heuristics must be sound: any Cover is a genuine in-budget cover,
   and they never "repair" a memory BnB proves unrepairable *)
let prop_heuristics_sound =
  QCheck.Test.make ~name:"Greedy/Essential sound vs BnB" ~count:500
    arb_problem (fun p ->
      let bnb = Cover.Exhaustive.solve p in
      List.for_all
        (fun (module A : Cover.Allocator) ->
          match A.solve p with
          | Cover.Uncoverable -> true
          | Cover.Cover s -> Cover.covers p s && bnb <> Cover.Uncoverable)
        [ (module Cover.Greedy); (module Cover.Essential) ])

(* determinism: solving twice is physically equal output *)
let prop_deterministic =
  QCheck.Test.make ~name:"allocators deterministic" ~count:200 arb_problem
    (fun p ->
      List.for_all
        (fun (module A : Cover.Allocator) -> A.solve p = A.solve p)
        [ (module Cover.Greedy); (module Cover.Essential)
        ; (module Cover.Exhaustive)
        ])

(* ------------------------------------------------------------------ *)
(* fault map *)

let org_2d = Org.make ~spares:4 ~spare_cols:2 ~words:64 ~bpw:8 ~bpc:4 ()

let test_fault_map_bound () =
  let fm = Fault_map.create org_2d in
  (* bound = spares*cols + spare_cols*rows = 4*32 + 2*16 = 160 *)
  let rows = Org.rows org_2d and cols = Org.cols org_2d in
  (try
     for r = 0 to rows - 1 do
       for c = 0 to cols - 1 do
         Fault_map.add_cell fm ~row:r ~col:c
       done
     done
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "overflowed" true (Fault_map.overflowed fm)

let test_fault_map_extraction_agrees () =
  (* march a model with injected faults and hold the packed-XOR cell
     extraction against the per-bit reference on every failure *)
  let model = Model.create org_2d in
  Model.set_faults model
    [ F.Stuck_at ({ F.row = 3; col = 5 }, false)
    ; F.Stuck_at ({ F.row = 9; col = 17 }, true)
    ; F.Transition ({ F.row = 12; col = 2 }, false)
    ];
  let backgrounds = Datagen.required_backgrounds ~bpw:8 in
  let failures = Engine.run model Alg.ifa_9 ~backgrounds in
  Alcotest.(check bool) "failures found" true (failures <> []);
  List.iter
    (fun f ->
      let fastc = Fault_map.failure_cells ~fast:true org_2d f in
      let slowc = Fault_map.failure_cells ~fast:false org_2d f in
      Alcotest.(check (list (pair int int))) "fast = scalar" slowc fastc)
    failures

(* ------------------------------------------------------------------ *)
(* 2D remap *)

let test_remap_assign () =
  Alcotest.(check (option (list (pair int int))))
    "skips burned spares"
    (Some [ (2, 1); (7, 3) ])
    (Remap2d.assign ~spares:4 ~burned:[| true; false; true; false |] [ 2; 7 ]);
  Alcotest.(check (option (list (pair int int))))
    "exhausted -> None" None
    (Remap2d.assign ~spares:1 ~burned:[| true |] [ 0 ])

let test_remap_paths () =
  let rr = Remap2d.row_remap org_2d [ (3, 0); (9, 2) ] in
  Alcotest.(check int) "row 3 -> spare 0" (Org.rows org_2d) (rr 3);
  Alcotest.(check int) "row 9 -> spare 2" (Org.rows org_2d + 2) (rr 9);
  Alcotest.(check int) "row 4 identity" 4 (rr 4);
  let cr = Remap2d.col_remap org_2d [ (5, 1) ] in
  Alcotest.(check int) "col 5 -> spare 1" (Org.cols org_2d + 1) (cr 5);
  Alcotest.(check int) "col 6 identity" 6 (cr 6)

let test_model_col_steering () =
  (* writes land in the steered spare column: a fault in the regular
     column becomes invisible once steering is armed *)
  let model = Model.create org_2d in
  Model.set_faults model [ F.Stuck_at ({ F.row = 2; col = 7 }, false) ];
  let cr = Remap2d.col_remap org_2d [ (7, 0) ] in
  Model.set_col_remap model (Some cr);
  let backgrounds = Datagen.required_backgrounds ~bpw:8 in
  let failures = Engine.run model Alg.ifa_9 ~backgrounds in
  Alcotest.(check int) "steered around the fault" 0 (List.length failures)

(* ------------------------------------------------------------------ *)
(* BIRA flow *)

let run_bira ?(faults = []) strategy =
  let model = Model.create org_2d in
  Model.set_faults model faults;
  let backgrounds = Datagen.required_backgrounds ~bpw:8 in
  Bira.run ~fast:true strategy model Alg.ifa_9 ~backgrounds

let test_bira_clean () =
  let r = run_bira Bira.Exhaustive in
  Alcotest.(check bool) "passed clean"
    true
    (r.Bira.b_outcome = Bisram_bisr.Repair.Passed_clean);
  Alcotest.(check bool) "no alloc" true (r.Bira.b_alloc = None);
  Alcotest.(check int) "one round" 1 r.Bira.b_rounds

let test_bira_col_repair () =
  (* more faulty rows than row spares, all in one column: only a
     column repair can succeed *)
  let faults =
    List.map (fun row -> F.Stuck_at ({ F.row; col = 11 }, false)) [ 0; 2; 4; 6; 8 ]
  in
  let r = run_bira ~faults Bira.Exhaustive in
  (match r.Bira.b_outcome with
  | Bisram_bisr.Repair.Repaired _ -> ()
  | o ->
      Alcotest.failf "expected repair, got %a" Bisram_bisr.Repair.pp_outcome o);
  match r.Bira.b_alloc with
  | Some a -> Alcotest.(check (list int)) "column 11" [ 11 ] a.Bira.a_cols
  | None -> Alcotest.fail "no allocation reported"

let test_bira_strategies_agree_on_verdict () =
  let faults =
    [ F.Stuck_at ({ F.row = 1; col = 3 }, true)
    ; F.Stuck_at ({ F.row = 1; col = 9 }, false)
    ; F.Stuck_at ({ F.row = 14; col = 22 }, true)
    ]
  in
  let ok s =
    match (run_bira ~faults s).Bira.b_outcome with
    | Bisram_bisr.Repair.Passed_clean | Bisram_bisr.Repair.Repaired _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "greedy repairs" true (ok Bira.Greedy);
  Alcotest.(check bool) "essential repairs" true (ok Bira.Essential);
  Alcotest.(check bool) "bnb repairs" true (ok Bira.Exhaustive)

(* The 2D repair flow does not depend on its fast paths: [Bira.run]
   with the packed or the per-bit fault-list extraction, on a model
   with the packed store on or off, gives the same result, leaves the
   same array (spare rows and spare columns included), the same sense
   residue and the same access counts, for every allocator.  Faults
   force column repairs (a column defect over several rows), sit on
   spare-column cells (so verification burns spares, and a steered
   slot must leave the spare-bit path when its target is flagged),
   couple across the regular/spare-column boundary, and fill one word
   with stuck-open cells (so a read returns the sense residue). *)
let prop_flow_fast_paths_agree =
  let module I = Bisram_faults.Injection in
  QCheck.Test.make ~name:"2D repair flow: fast paths = per-bit paths"
    ~count:250 QCheck.(int_range 0 100_000) (fun seed ->
      let org = org_2d in
      let rng = Random.State.make [| 0xB12A; seed |] in
      let int k = Random.State.int rng k and flip () = Random.State.bool rng in
      let rows = Org.rows org and cols = Org.cols org in
      let trows = Org.total_rows org and tcols = Org.total_cols org in
      let bpc = org.Org.bpc and bpw = org.Org.bpw in
      let cell row col = { F.row; col } in
      let open_row = int trows and open_col = int bpc in
      let spare_cell () =
        (* the first spare column is the one a single column repair uses *)
        cell (int trows) (cols + if int 4 = 0 then int (tcols - cols) else 0)
      in
      let faults =
        (let c = int cols in
         List.init (int 5) (fun _ -> F.Stuck_at (cell (int rows) c, flip ())))
        @ I.inject rng ~rows:trows ~cols:tcols ~mix:I.default_mix ~n:(int 3)
        @ List.init (int 4) (fun _ ->
              let c = spare_cell () in
              match int 3 with
              | 0 -> F.Stuck_at (c, flip ())
              | 1 -> F.Transition (c, flip ())
              | _ -> F.Stuck_open c)
        @ (let reg = cell (int trows) (int cols) and spr = spare_cell () in
           let aggressor, victim = if flip () then (reg, spr) else (spr, reg) in
           match int 3 with
           | 0 -> [ F.Coupling_inversion { aggressor; victim } ]
           | 1 ->
               [ F.Coupling_idempotent
                   { aggressor; rising = flip (); victim; forces = flip () } ]
           | _ ->
               [ F.State_coupling
                   { aggressor; when_state = flip (); victim; reads_as = flip () }
               ])
        @
        if flip () then
          List.init bpw (fun b ->
              F.Stuck_open (cell open_row ((b * bpc) + open_col)))
        else []
      in
      let backgrounds = Datagen.required_backgrounds ~bpw in
      let run strategy ~fast ~model_fast =
        let m = Model.create org in
        Model.set_fast_path m model_fast;
        Model.set_faults m faults;
        let r = Bira.run ~fast strategy m Alg.ifa_9 ~backgrounds in
        let reads = Model.reads m and writes = Model.writes m in
        (* the residue first (read whole through a stuck-open word,
           unsteered), then every regular word, then each spare column:
           steering every regular column onto spare column [k] reads its
           cell on all I/Os *)
        Model.set_remap m None;
        Model.set_col_remap m None;
        let residue = Model.read_row_word m ~row:open_row ~col:open_col in
        let regular =
          List.init trows (fun row ->
              List.init bpc (fun col -> Model.read_row_word m ~row ~col))
        in
        let spare_cols =
          List.init (tcols - cols) (fun k ->
              Model.set_col_remap m (Some (fun _ -> cols + k));
              List.init trows (fun row -> Model.read_row_word m ~row ~col:0))
        in
        (r, reads, writes, residue, regular, spare_cols)
      in
      List.for_all
        (fun strategy ->
          let base = run strategy ~fast:true ~model_fast:true in
          List.for_all
            (fun (fast, model_fast) -> run strategy ~fast ~model_fast = base)
            [ (false, true); (true, false); (false, false) ])
        [ Bira.Greedy; Bira.Essential; Bira.Exhaustive ])

(* ------------------------------------------------------------------ *)
(* 2D yield model *)

let test_yield2_guards () =
  let g2 = Repairable.make2 ~rows:16 ~cols:32 ~spare_rows:4 ~spare_cols:2 in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument
           (match name with
           | "nan mean" ->
               "Repairable.yield2: mean_defects must be finite and >= 0 (got nan)"
           | "negative mean" ->
               "Repairable.yield2: mean_defects must be finite and >= 0 (got -1)"
           | _ -> "Repairable.yield2: alpha must be finite and > 0 (got 0)"))
        (fun () -> ignore (f ())))
    [ ("nan mean", fun () -> Repairable.yield2 g2 ~mean_defects:Float.nan ~alpha:2.0)
    ; ("negative mean", fun () -> Repairable.yield2 g2 ~mean_defects:(-1.0) ~alpha:2.0)
    ; ("bad alpha", fun () -> Repairable.yield2 g2 ~mean_defects:1.0 ~alpha:0.0)
    ];
  Alcotest.check_raises "degenerate geometry"
    (Invalid_argument "Repairable.make2: rows")
    (fun () -> ignore (Repairable.make2 ~rows:0 ~cols:4 ~spare_rows:1 ~spare_cols:1))

let test_yield2_sanity () =
  let g2 = Repairable.make2 ~rows:16 ~cols:32 ~spare_rows:4 ~spare_cols:2 in
  let y1 = Repairable.yield2 g2 ~mean_defects:1.0 ~alpha:2.0 in
  let y5 = Repairable.yield2 g2 ~mean_defects:5.0 ~alpha:2.0 in
  Alcotest.(check bool) "in (0,1]" true (y1 > 0.0 && y1 <= 1.0);
  Alcotest.(check bool) "monotone in defects" true (y5 <= y1);
  (* no faults is always repairable *)
  Alcotest.(check (float 1e-9)) "p(0) = 1" 1.0 (Repairable.p_repairable2 g2 0);
  (* deterministic: same samples/seed, same value *)
  Alcotest.(check (float 0.0)) "deterministic" y1
    (Repairable.yield2 g2 ~mean_defects:1.0 ~alpha:2.0)

(* ------------------------------------------------------------------ *)
(* campaign guarantees *)

(* `--repair row-tlb` reproduces the pre-PR report bytes (the golden
   file is the CLI output of `campaign --trials 60 --seed 7 --jobs 1`
   captured before the BIRA subsystem landed) *)
let test_golden_row_tlb () =
  let cfg = C.make_config ~trials:60 ~seed:7 () in
  let r = C.run ~jobs:1 cfg in
  Alcotest.(check string)
    "row-tlb report is byte-identical to the golden capture"
    (Fixture.read "golden_row_tlb.json")
    (C.pretty_json_string r)

(* `--spare-cols 2 --repair bira-bnb` report bytes (the golden file is
   the CLI output of `campaign --trials 40 --seed 11 --mode poisson
   --mean 3 --spare-cols 2 --repair bira-bnb --jobs 1`).  Its 7
   two-pass and 7 iterated escapes exercise both BIRA sweep sides and
   their shrink predicates. *)
let test_golden_bira_bnb () =
  let cfg =
    C.make_config ~org:org_2d ~repair:(C.Bira Bira.Exhaustive)
      ~mode:(C.Poisson 3.0) ~trials:40 ~seed:11 ()
  in
  Alcotest.(check string)
    "bira-bnb report is byte-identical to the golden capture"
    (Fixture.read "golden_bira_bnb.json")
    (C.pretty_json_string (C.run ~jobs:1 cfg))

(* The same flow at Poisson mean 3 over 200 trials (the golden file is
   the CLI output of `campaign --trials 200 --seed 7 --mode poisson
   --mean 3 --spare-cols 2 --repair bira-bnb --jobs 1`, captured before
   column steering joined the packed store).  15 of its trials end with
   a column repair armed, so it pins steered verification rounds and
   escape sweeps against report bytes. *)
let test_golden_bira_p3 () =
  let cfg =
    C.make_config ~org:org_2d ~repair:(C.Bira Bira.Exhaustive)
      ~mode:(C.Poisson 3.0) ~trials:200 ~seed:7 ()
  in
  Alcotest.(check string)
    "poisson-3 bira-bnb report is byte-identical to the golden capture"
    (Fixture.read "golden_bira_p3.json")
    (C.pretty_json_string (C.run ~jobs:1 cfg))

(* byte-identity at jobs x lanes for every allocator *)
let test_jobs_lanes_identical () =
  List.iter
    (fun repair ->
      let cfg =
        C.make_config ~org:org_2d ~repair
          ~mode:(C.Poisson 3.0) ~trials:24 ~seed:11 ()
      in
      let base = C.json_string (C.run ~jobs:1 ~lanes:1 cfg) in
      List.iter
        (fun (jobs, lanes) ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d lanes=%d" (C.repair_name repair) jobs
               lanes)
            base
            (C.json_string (C.run ~jobs ~lanes cfg)))
        [ (1, 62); (4, 1); (4, 62) ])
    [ C.Bira Bira.Greedy; C.Bira Bira.Essential; C.Bira Bira.Exhaustive ]

(* the BIRA differential oracle (packed vs per-bit extraction, plus
   allocation equality) reports no divergence *)
let test_bira_no_divergence () =
  List.iter
    (fun repair ->
      let cfg =
        C.make_config ~org:org_2d ~repair
          ~mode:(C.Poisson 3.0) ~trials:40 ~seed:5 ()
      in
      let r = C.run ~jobs:2 cfg in
      Alcotest.(check int)
        (C.repair_name repair ^ " divergences")
        0
        (List.length r.C.divergences))
    [ C.Bira Bira.Greedy; C.Bira Bira.Exhaustive ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bira"
    [ ( "cover"
      , [ Alcotest.test_case "empty problem" `Quick test_cover_empty
        ; Alcotest.test_case "must-repair fixpoint" `Quick
            test_cover_must_repair
        ; Alcotest.test_case "uncoverable diagonal" `Quick
            test_cover_uncoverable
        ; Alcotest.test_case "column-only repair" `Quick test_bnb_col_only
        ; QCheck_alcotest.to_alcotest prop_bnb_optimal
        ; QCheck_alcotest.to_alcotest prop_heuristics_sound
        ; QCheck_alcotest.to_alcotest prop_deterministic
        ] )
    ; ( "fault-map"
      , [ Alcotest.test_case "bound overflow" `Quick test_fault_map_bound
        ; Alcotest.test_case "fast = scalar extraction" `Quick
            test_fault_map_extraction_agrees
        ] )
    ; ( "remap2d"
      , [ Alcotest.test_case "spare assignment" `Quick test_remap_assign
        ; Alcotest.test_case "row/col remap paths" `Quick test_remap_paths
        ; Alcotest.test_case "model column steering" `Quick
            test_model_col_steering
        ] )
    ; ( "flow"
      , [ Alcotest.test_case "clean pass" `Quick test_bira_clean
        ; Alcotest.test_case "column repair" `Quick test_bira_col_repair
        ; Alcotest.test_case "strategies agree" `Quick
            test_bira_strategies_agree_on_verdict
        ; QCheck_alcotest.to_alcotest prop_flow_fast_paths_agree
        ] )
    ; ( "yield2"
      , [ Alcotest.test_case "degenerate inputs raise" `Quick
            test_yield2_guards
        ; Alcotest.test_case "sanity" `Quick test_yield2_sanity
        ] )
    ; ( "campaign"
      , [ Alcotest.test_case "golden row-tlb bytes" `Slow test_golden_row_tlb
        ; Alcotest.test_case "golden bira-bnb bytes" `Slow test_golden_bira_bnb
        ; Alcotest.test_case "golden bira-bnb poisson-3 bytes" `Slow
            test_golden_bira_p3
        ; Alcotest.test_case "jobs x lanes byte-identity" `Slow
            test_jobs_lanes_identical
        ; Alcotest.test_case "no divergences" `Slow test_bira_no_divergence
        ] )
    ]
