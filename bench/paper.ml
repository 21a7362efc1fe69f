(* The paper reproduction: regenerates every table and figure of the
   paper's evaluation.  Its stdout is deterministic and pinned as
   test/golden_paper.txt; see EXPERIMENTS.md for the paper-vs-measured
   record. *)

module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Model = Bisram_sram.Model
module Timing = Bisram_sram.Timing
module F = Bisram_faults.Fault
module I = Bisram_faults.Injection
module March = Bisram_bist.March
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen
module Trpla = Bisram_bist.Trpla
module Engine = Bisram_bist.Engine
module Controller = Bisram_bist.Controller
module Coverage = Bisram_bist.Coverage
module Tlb_timing = Bisram_bisr.Tlb_timing
module Repair = Bisram_bisr.Repair
module Repairable = Bisram_yield.Repairable
module Rel = Bisram_rel.Reliability
module Chips = Bisram_cost.Chips
module Mpr = Bisram_cost.Mpr
module Config = Bisram_core.Config
module Compiler = Bisram_core.Compiler
module Floorplan = Bisram_pr.Floorplan
module Pr = Bisram_tech.Process

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table I: BISR area overhead with four spare rows, process CDA 0.7u *)

let table1_configs =
  (* (words, bpw, bpc) spanning the paper's realistic 64 Kb - 4 Mb *)
  [ (16384, 4, 4) (* 64 Kb narrow *)
  ; (8192, 16, 8) (* 128 Kb *)
  ; (16384, 16, 8) (* 256 Kb *)
  ; (4096, 128, 8) (* 512 Kb  (Fig. 6) *)
  ; (4096, 256, 16) (* 1 Mb   (Fig. 7) *)
  ; (8192, 256, 16) (* 2 Mb *)
  ; (16384, 256, 16) (* 4 Mb *)
  ]

let table1 () =
  section "Table I: BISR area overhead, 4 spare rows, process CDA.7u3m1p";
  Printf.printf "%8s %5s %5s | %7s | %9s %9s | %8s %8s\n" "words" "bpw" "bpc"
    "size" "base mm2" "logic mm2" "logic%" "total%";
  List.iter
    (fun (words, bpw, bpc) ->
      let cfg =
        Config.make ~process:Pr.cda_07u3m1p ~words ~bpw ~bpc ~spares:4 ()
      in
      let d = Compiler.compile cfg in
      let a = d.Compiler.area in
      let kb = Org.kilobits cfg.Config.org in
      Printf.printf "%8d %5d %5d | %5.0fKb | %9.3f %9.4f | %7.2f%% %7.2f%%\n"
        words bpw bpc kb a.Compiler.base_mm2 a.Compiler.logic_mm2
        a.Compiler.overhead_logic_pct a.Compiler.overhead_total_pct)
    table1_configs;
  Printf.printf
    "(paper: BIST+BISR logic overhead at most 7%% for realistic sizes)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4: yield vs number of defects; 1024 rows, bpc = bpw = 4 *)

(* growth factor and logic fraction measured from the compiled module
   of the same organization *)
let fig4_geometry spares =
  Compiler.yield_geometry
    (Compiler.compile
       (Config.make ~process:Pr.cda_07u3m1p ~words:4096 ~bpw:4 ~bpc:4 ~spares ()))

let fig4 () =
  section "Fig. 4: yield vs mean defect count (1024 rows, bpc=4, bpw=4)";
  let alpha = 2.0 in
  let geoms = List.map (fun s -> (s, fig4_geometry s)) [ 0; 4; 8; 16 ] in
  Printf.printf "%6s" "n";
  List.iter (fun (s, _) -> Printf.printf "  %8s" (Printf.sprintf "s=%d" s)) geoms;
  Printf.printf "\n";
  List.iter
    (fun n ->
      Printf.printf "%6.1f" n;
      List.iter
        (fun (_, g) ->
          Printf.printf "  %8.4f" (Repairable.yield g ~mean_defects:n ~alpha))
        geoms;
      Printf.printf "\n")
    [ 0.0; 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 15.0; 20.0; 30.0; 40.0; 50.0; 60.0 ];
  Printf.printf "(alpha = %.1f; curves ordered s=16 > s=8 > s=4 > none for\n"
    alpha;
  Printf.printf " meaningful defect counts, with the slight inversion near\n";
  Printf.printf " n=0 where extra spares are only extra fault sites)\n"

(* Clustering-factor sensitivity of the Fig. 4 conclusions. *)
let fig4_alpha_sensitivity () =
  section "Fig. 4 sensitivity: clustering factor alpha";
  let g4 = fig4_geometry 4 and g0 = fig4_geometry 0 in
  Printf.printf "%7s" "alpha";
  List.iter (fun n -> Printf.printf "  %14s" (Printf.sprintf "gain @ n=%g" n))
    [ 2.0; 10.0; 30.0 ];
  Printf.printf "\n";
  List.iter
    (fun alpha ->
      Printf.printf "%7.1f" alpha;
      List.iter
        (fun n ->
          let y4 = Repairable.yield g4 ~mean_defects:n ~alpha in
          let y0 = Repairable.yield g0 ~mean_defects:n ~alpha in
          Printf.printf "  %13.1fx" (y4 /. y0))
        [ 2.0; 10.0; 30.0 ];
      Printf.printf "\n")
    [ 0.5; 1.0; 2.0; 5.0; 100.0 ];
  Printf.printf
    "(the BISR yield gain of 4 spares over none, across clustering\n\
    \ assumptions: heavier clustering (small alpha) shrinks the gain —\n\
    \ clustered defects concentrate in few dies — but BISR wins everywhere;\n\
    \ alpha=100 is effectively the Poisson limit)\n"

(* Cross-validation: the analytic curve against the actual two-pass
   BIST/BISR flow run on fault-injected behavioural RAMs. *)
let fig4_flow_validation () =
  section "Fig. 4 cross-check: analytic yield vs simulated two-pass flow";
  let org = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:4 () in
  let g = fig4_geometry 4 in
  let growth = g.Repairable.growth_factor
  and flogic = g.Repairable.logic_fraction in
  let alpha = 2.0 in
  let rng = Random.State.make [| 1999; 7 |] in
  let backgrounds = Datagen.required_backgrounds ~bpw:4 in
  let trials = 60 in
  Printf.printf "%6s  %10s  %10s  %16s\n" "n" "analytic" "simulated"
    "95% Wilson CI";
  List.iter
    (fun n ->
      let analytic = Repairable.yield g ~mean_defects:n ~alpha in
      let good = ref 0 in
      for _ = 1 to trials do
        (* same fault-count model as the analytic curve: mean scaled by
           the growth factor; a fault hits the BIST/BISR logic with the
           logic-area probability and is then fatal *)
        let count =
          Bisram_faults.Defect.negative_binomial rng ~mean:(n *. growth)
            ~alpha
        in
        let logic_kill = ref false in
        let array_faults = ref 0 in
        for _ = 1 to count do
          if Random.State.float rng 1.0 < flogic then logic_kill := true
          else incr array_faults
        done;
        if not !logic_kill then begin
          let faults =
            I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
              ~mix:I.stuck_at_only ~n:!array_faults
          in
          let m = Model.create org in
          Model.set_faults m faults;
          match Repair.run_reference m Alg.ifa_9 ~backgrounds with
          | Repair.Passed_clean, _ | Repair.Repaired _, _ -> incr good
          | Repair.Repair_unsuccessful _, _ -> ()
        end
      done;
      let k = float_of_int !good and n_trials = float_of_int trials in
      let ci = Bisram_campaign.Estimator.wilson ~k ~n:n_trials () in
      Printf.printf "%6.1f  %10.4f  %10.4f  [%.4f, %.4f]\n" n analytic
        (k /. n_trials) ci.lo ci.hi)
    [ 1.0; 3.0; 6.0 ];
  Printf.printf "(%d Monte-Carlo RAMs per point; simulated flow includes\n"
    trials;
  Printf.printf " fault injection, both BIST passes and TLB repair)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 5: reliability vs device age *)

let fig5 () =
  section "Fig. 5: reliability vs age (1024 rows, bpc=4, bpw=4)";
  let lambda = 1e-8 in
  let cfg s = Rel.of_org (Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:s ()) ~lambda in
  let spares = [ 0; 4; 8; 16 ] in
  Printf.printf "%8s" "t (kh)";
  List.iter (fun s -> Printf.printf "  %9s" (Printf.sprintf "s=%d" s)) spares;
  Printf.printf "\n";
  List.iter
    (fun tkh ->
      Printf.printf "%8.0f" tkh;
      List.iter
        (fun s -> Printf.printf "  %9.5f" (Rel.reliability (cfg s) (tkh *. 1e3)))
        spares;
      Printf.printf "\n")
    [ 0.0; 10.0; 20.0; 40.0; 60.0; 65.0; 70.0; 80.0; 100.0; 120.0; 150.0 ];
  (match Rel.crossover (cfg 4) (cfg 8) ~t0:1e3 ~t1:1e6 ~steps:5000 with
  | Some t ->
      Printf.printf
        "4-vs-8-spare crossover at %.0f h (%.1f years; paper: ~70,000 h / 8 y)\n"
        t (t /. 8760.0)
  | None -> Printf.printf "no crossover found\n");
  List.iter
    (fun s -> Printf.printf "MTTF with %2d spares: %.3g h\n" s (Rel.mttf (cfg s)))
    spares;
  Printf.printf
    "(per-bit failure rate %.0e/h, reconciling the paper's rate with its\n"
    lambda;
  Printf.printf " plotted crossover; see EXPERIMENTS.md)\n"

(* ------------------------------------------------------------------ *)
(* Figs. 6 and 7: generated module floorplans *)

let figN ~label ~words ~bpw ~bpc () =
  let cfg =
    Config.make ~process:Pr.cda_07u3m1p ~words ~bpw ~bpc ~spares:4 ~drive:2
      ~strap:32 ()
  in
  let d = Compiler.compile cfg in
  section label;
  print_string (Compiler.datasheet d);
  let fp = d.Compiler.floorplan in
  Format.printf "%a@." Floorplan.pp fp;
  print_string (Floorplan.render ~width:72 fp)

let fig6 =
  figN
    ~label:"Fig. 6: SRAM 4K words x 128 bits, bpc=8, strap 32, 4 spares (64 KB)"
    ~words:4096 ~bpw:128 ~bpc:8

let fig7 =
  figN
    ~label:"Fig. 7: SRAM 4K words x 256 bits, bpc=16, strap 32, 4 spares (128 KB)"
    ~words:4096 ~bpw:256 ~bpc:16

(* ------------------------------------------------------------------ *)
(* Tables II and III: manufacturing cost *)

let table2 () =
  section "Table II: cost per good die, with and without RAM BISR";
  Printf.printf "%-16s %3s | %8s %6s %8s | %8s %6s %8s\n" "chip" "M" "dies/waf"
    "yield" "$ /die" "dies/waf" "yield" "$ /die";
  List.iter
    (fun row ->
      let c = row.Mpr.chip in
      let p = row.Mpr.without_bisr in
      match row.Mpr.with_bisr with
      | Some w ->
          Printf.printf "%-16s %3d | %8d %5.1f%% %8.2f | %8d %5.1f%% %8.2f\n"
            c.Chips.name c.Chips.metal_layers p.Mpr.dies_per_wafer
            (100.0 *. p.Mpr.die_yield) p.Mpr.cost_per_good_die
            w.Mpr.dies_per_wafer
            (100.0 *. w.Mpr.die_yield)
            w.Mpr.cost_per_good_die
      | None ->
          Printf.printf "%-16s %3d | %8d %5.1f%% %8.2f | %25s\n" c.Chips.name
            c.Chips.metal_layers p.Mpr.dies_per_wafer
            (100.0 *. p.Mpr.die_yield) p.Mpr.cost_per_good_die
            "(2 metal layers: n/a)")
    (Mpr.table2 ());
  Printf.printf "(paper: significant decrease, often by a factor of about 2)\n"

let table3 () =
  section "Table III: total manufacturing cost per packaged and tested chip";
  Printf.printf "%-16s | %8s %8s %8s %9s | %9s %9s\n" "chip" "die" "test"
    "package" "total" "with BISR" "reduction";
  List.iter
    (fun row ->
      let c = row.Mpr.chip3 in
      let p = row.Mpr.plain in
      match (row.Mpr.bisr, row.Mpr.reduction_pct) with
      | Some b, Some pct ->
          Printf.printf
            "%-16s | %8.2f %8.2f %8.2f %9.2f | %9.2f %8.1f%%\n" c.Chips.name
            p.Mpr.die p.Mpr.test_assembly p.Mpr.package p.Mpr.total b.Mpr.total
            pct
      | _ ->
          Printf.printf "%-16s | %8.2f %8.2f %8.2f %9.2f | %20s\n" c.Chips.name
            p.Mpr.die p.Mpr.test_assembly p.Mpr.package p.Mpr.total
            "(2 metals: n/a)")
    (Mpr.table3 ());
  Printf.printf
    "(paper: reductions from 2.35%% for Intel486DX2 to 47.2%% for SuperSPARC)\n"

(* ------------------------------------------------------------------ *)
(* Section VI: TLB delay and masking *)

let tlb_delay () =
  section "Section VI: TLB delay penalty vs spare rows (0.7 um, 1024 rows)";
  let p = Pr.cda_07u3m1p in
  Printf.printf "%7s  %10s  %10s  %10s\n" "spares" "TLB (ns)" "access(ns)"
    "maskable";
  List.iter
    (fun s ->
      let org = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:s () in
      let d = Tlb_timing.total (Tlb_timing.delay p ~org) in
      let a = Timing.total (Timing.access_time p org ~drive:2.0) in
      Printf.printf "%7d  %10.3f  %10.3f  %10b\n" s (d *. 1e9) (a *. 1e9)
        (Tlb_timing.maskable p ~org ~drive:2.0))
    [ 4; 8; 16 ];
  Printf.printf "(paper: ~1.2 ns with four spares; masking guaranteed for 1-4)\n"

(* ------------------------------------------------------------------ *)
(* Sections V-VI: controller size and area fraction *)

let controller_stats () =
  section "Sections V-VI: test-and-repair controller";
  let bgs = Datagen.required_backgrounds ~bpw:8 in
  let ctl = Controller.compile Alg.ifa_9 ~words:16384 ~backgrounds:bgs in
  let pla = Controller.to_pla ctl in
  Printf.printf "march algorithm      : %s\n" (March.to_string Alg.ifa_9);
  Printf.printf "controller states    : %d (paper: 59)\n"
    (Controller.state_count ctl);
  Printf.printf "flip-flops           : %d (paper: 6)\n"
    (Controller.flipflop_count ctl);
  Printf.printf "TRPLA                : %d inputs, %d outputs, %d terms\n"
    (Trpla.n_inputs pla) (Trpla.n_outputs pla) (Trpla.term_count pla);
  Printf.printf "TRPLA transistors    : %d\n" (Trpla.transistor_count pla);
  (* area fraction for a 16 KB RAM, as in the paper *)
  let cfg16 =
    Config.make ~process:Pr.cda_07u3m1p ~words:16384 ~bpw:8 ~bpc:8 ~spares:4 ()
  in
  let d = Compiler.compile cfg16 in
  let pla_mm2 =
    let rules = Pr.cda_07u3m1p.Pr.rules in
    let lam2 = Trpla.area_lambda2 rules pla in
    let nm = float_of_int Pr.cda_07u3m1p.Pr.lambda_nm in
    float_of_int lam2 *. nm *. nm *. 1e-12
  in
  Printf.printf
    "controller area      : %.4f mm2 = %.3f%% of a 16 KB array (paper: <0.1%%)\n"
    pla_mm2
    (100.0 *. pla_mm2 /. d.Compiler.area.Compiler.array_mm2);
  (* plane images round-trip, the paper's runtime-loadable control code *)
  let images_ok =
    let pla' =
      Trpla.of_images
        ~and_plane:(Trpla.and_plane_image pla)
        ~or_plane:(Trpla.or_plane_image pla)
    in
    Trpla.term_count pla' = Trpla.term_count pla
  in
  Printf.printf "control-code files   : AND/OR plane images round-trip: %b\n"
    images_ok;
  (* gate-level compilation of the FSM *)
  let net = Bisram_bist.Pla_gates.controller_netlist ctl in
  let _, stats = Bisram_gates.Optimize.optimize net in
  Printf.printf
    "FSM as gates         : %d raw -> %d optimized gates + %d flip-flops\n"
    stats.Bisram_gates.Optimize.gates_before
    stats.Bisram_gates.Optimize.gates_after stats.Bisram_gates.Optimize.ffs

(* ------------------------------------------------------------------ *)
(* Section V: fault coverage of the microprogrammed test *)

let coverage () =
  section "Section V: fault coverage (exhaustive single faults, 16x4 array)";
  let org = Org.make ~words:16 ~bpw:4 ~bpc:4 ~spares:0 () in
  let faults = Coverage.exhaustive_faults org in
  let bgs = Datagen.required_backgrounds ~bpw:4 in
  Printf.printf "%-10s" "test";
  List.iter (fun c -> Printf.printf " %6s" c) F.all_class_names;
  Printf.printf " %7s\n" "TOTAL";
  List.iter
    (fun alg ->
      let r = Coverage.evaluate org alg ~backgrounds:bgs ~faults in
      Printf.printf "%-10s" alg.March.name;
      List.iter
        (fun name ->
          match
            List.find_opt
              (fun c -> c.Coverage.class_name = name)
              r.Coverage.per_class
          with
          | Some c -> Printf.printf " %5.1f%%" (Coverage.coverage_pct c)
          | None -> Printf.printf " %6s" "-")
        F.all_class_names;
      Printf.printf " %6.1f%%\n" (Coverage.total_pct r))
    [ Alg.ifa_9; Alg.ifa_13; Alg.march_c_minus; Alg.march_a; Alg.march_y
    ; Alg.march_lr; Alg.pmovi; Alg.mats_plus; Alg.zero_one
    ];
  Printf.printf
    "(IFA-9 covers SAF/TF/CF/DRF; IFA-13's read-after-write adds the\n\
     \ mid-array stuck-open coverage, matching the published hierarchy)\n"

(* ------------------------------------------------------------------ *)
(* Repair-flow demonstration *)

let repair_demo () =
  section "Two-pass self-repair demonstration (64 words x 8, 4 spares)";
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let backgrounds = Datagen.required_backgrounds ~bpw:8 in
  let run name faults =
    let m = Model.create org in
    Model.set_faults m faults;
    let outcome, report, tlb = Repair.run m Alg.ifa_9 ~backgrounds in
    Format.printf "%-28s: %a (%d cycles, %d rows recorded)@." name
      Repair.pp_outcome outcome report.Controller.cycles
      (Bisram_bisr.Tlb.entries tlb)
  in
  run "clean RAM" [];
  run "2 faulty rows"
    [ F.Stuck_at ({ F.row = 3; col = 9 }, true)
    ; F.Transition ({ F.row = 7; col = 0 }, true)
    ];
  run "5 faulty rows (> spares)"
    (List.map (fun r -> F.Stuck_at ({ F.row = r; col = 0 }, true)) [ 1; 3; 5; 7; 9 ]);
  run "faulty spare row"
    [ F.Stuck_at ({ F.row = 3; col = 9 }, true)
    ; F.Stuck_at ({ F.row = Org.rows org; col = 9 }, true)
    ];
  (* iterated flow fixes the faulty spare *)
  let m = Model.create org in
  Model.set_faults m
    [ F.Stuck_at ({ F.row = 3; col = 9 }, true)
    ; F.Stuck_at ({ F.row = Org.rows org; col = 9 }, true)
    ];
  let r = Repair.run_iterated_result m Alg.ifa_9 ~backgrounds in
  Format.printf "%-28s: %a@." "  ... with 2k-pass iteration" Repair.pp_outcome
    r.Repair.i_outcome

(* ------------------------------------------------------------------ *)
(* March synthesis: generated tests vs the hand-designed library *)

let synthesis () =
  section "March synthesis: greedy generation vs the library algorithms";
  let org = Org.make ~words:16 ~bpw:4 ~bpc:4 ~spares:0 () in
  let bgs = Datagen.required_backgrounds ~bpw:4 in
  let module Sy = Bisram_bist.Synthesis in
  let run label faults =
    let r = Sy.synthesize org ~faults ~backgrounds:bgs ~target:100.0 in
    Printf.printf "%-24s -> %2dN  %5.1f%%  %s\n" label
      (March.ops_per_address r.Sy.march)
      r.Sy.achieved
      (March.to_string r.Sy.march)
  in
  let all = Coverage.exhaustive_faults org in
  let only p = List.filter p all in
  run "SAF only"
    (only (function F.Stuck_at _ -> true | _ -> false));
  run "SAF + TF"
    (only (function F.Stuck_at _ | F.Transition _ -> true | _ -> false));
  run "SAF + TF + DRF"
    (only (function
      | F.Stuck_at _ | F.Transition _ | F.Data_retention _ -> true
      | _ -> false));
  run "all classes" all;
  Printf.printf
    "(hand-designed references: MATS+ 5N for SAF/TF, IFA-9 12N adding\n\
    \ coupling + retention; the synthesizer rediscovers the same structure\n\
    \ and the TRPLA loads any of them by swapping the two plane files)\n"

(* ------------------------------------------------------------------ *)
(* Spatial defects: yield vs defect size through real geometry *)

let spatial_yield () =
  section "Spatial defects: repairable fraction vs defect size";
  let org = Org.make ~words:1024 ~bpw:4 ~bpc:4 ~spares:4 () in
  let rows = Org.rows org and cols = Org.cols org in
  let rng = Random.State.make [| 42; 9 |] in
  let trials = 1500 in
  Printf.printf
    "%14s  %12s  %14s  (256 rows, 4 spares, mean 3 defects, %d trials)\n"
    "defect radius" "repairable" "mean rows hit" trials;
  List.iter
    (fun (r_min, r_max) ->
      let good = ref 0 and rows_total = ref 0 in
      for _ = 1 to trials do
        let faults =
          Bisram_faults.Spatial.inject rng ~cell_w:24 ~cell_h:20 ~rows ~cols
            ~r_min ~r_max ~mean:3.0 ~alpha:2.0
        in
        rows_total :=
          !rows_total + List.length (Bisram_faults.Spatial.rows_hit faults);
        if Bisram_bisr.Analysis.repairable_strict org faults then incr good
      done;
      Printf.printf "%7d-%3d l   %10.1f%%  %14.2f\n" r_min r_max
        (100.0 *. float_of_int !good /. float_of_int trials)
        (float_of_int !rows_total /. float_of_int trials))
    [ (1, 4); (1, 20); (10, 40); (30, 80) ];
  Printf.printf
    "(small spot defects stay within one row and repair like the analytic\n\
    \ model; defects larger than the 20-lambda cell height start killing\n\
    \ adjacent row pairs and the repairable fraction falls — the physical\n\
    \ regime behind Fig. 4's growth-factor bookkeeping)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: what each IFA-9 element and each Johnson background buys *)

let ablation () =
  section "Ablation: IFA-9 march elements and Johnson backgrounds";
  let org = Org.make ~words:16 ~bpw:4 ~bpc:4 ~spares:0 () in
  let faults = Coverage.exhaustive_faults ~include_same_word:true org in
  let bgs = Datagen.required_backgrounds ~bpw:4 in
  let print_row label march backgrounds =
    let clean = Model.create org in
    if not (Engine.passes clean march ~backgrounds) then
      Printf.printf "%-22s  invalid: fails on a fault-free RAM\n" label
    else begin
      let r = Coverage.evaluate org march ~backgrounds ~faults in
      Printf.printf "%-22s" label;
      List.iter
        (fun name ->
          match
            List.find_opt
              (fun c -> c.Coverage.class_name = name)
              r.Coverage.per_class
          with
          | Some c -> Printf.printf " %5.1f" (Coverage.coverage_pct c)
          | None -> Printf.printf " %5s" "-")
        F.all_class_names;
      Printf.printf " %6.1f\n" (Coverage.total_pct r)
    end
  in
  Printf.printf "%-22s" "variant";
  List.iter (fun c -> Printf.printf " %5s" c) F.all_class_names;
  Printf.printf " %6s\n" "TOTAL";
  print_row "IFA-9 (full)" Alg.ifa_9 bgs;
  (* feature ablations keep the data-phase chain consistent *)
  let no_delays =
    March.make ~name:"no-delays"
      (List.filter
         (fun i -> i <> March.Wait)
         Alg.ifa_9.March.items)
  in
  print_row "  - retention delays" no_delays bgs;
  let no_down =
    March.of_string ~name:"no-down" "u(w0); u(r0,w1); u(r1,w0); D; u(r0,w1); D; u(r1)"
  in
  print_row "  - down-marches" no_down bgs;
  let no_rw_pairs =
    March.of_string ~name:"write-heavy" "u(w0); u(w1); u(r1,w0); d(r0)"
  in
  print_row "  - read-after-every-w" no_rw_pairs bgs;
  print_row "  IFA-13 (superset)" Alg.ifa_13 bgs;
  Printf.printf "\nbackground-count sweep (IFA-9, same-word couplings included):\n";
  let all_bgs = Array.of_list bgs in
  for k = 1 to Array.length all_bgs do
    let sub = Array.to_list (Array.sub all_bgs 0 k) in
    print_row (Printf.sprintf "  %d background(s)" k) Alg.ifa_9 sub
  done;
  Printf.printf
    "(dropping the delays kills DRF coverage; dropping down-marches or the\n\
    \ extra backgrounds costs coupling coverage — each element earns its\n\
    \ test time)\n"

(* ------------------------------------------------------------------ *)
(* Section III: comparison with the prior BISR schemes *)

let baseline_comparison () =
  section "Section III: BISRAMGEN vs Chen-Sunada vs Sawada";
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let cs = Bisram_baselines.Chen_sunada.create org ~subblocks:4 ~spare_blocks:1 in
  let hybrid = Bisram_bisr.Hybrid.create org ~word_registers:2 in
  (* --- repair capability: Monte Carlo over two defect regimes --- *)
  let rng = Random.State.make [| 3; 1999 |] in
  let trials = 2000 in
  let capability_table ~title gen =
    Printf.printf "%s (%d trials)\n" title trials;
    Printf.printf "%8s  %10s  %12s  %8s  %8s\n" "defects" "BISRAMGEN"
      "Chen-Sunada" "Sawada" "hybrid";
    List.iter
      (fun n ->
        let b = ref 0 and c = ref 0 and s = ref 0 and h = ref 0 in
        for _ = 1 to trials do
          let faults = gen n in
          if Bisram_bisr.Analysis.repairable_strict org faults then incr b;
          if Bisram_baselines.Chen_sunada.repairable cs faults then incr c;
          if Bisram_baselines.Sawada.repairable org faults then incr s;
          if Bisram_bisr.Hybrid.repairable hybrid faults then incr h
        done;
        let pct x = 100.0 *. float_of_int x /. float_of_int trials in
        Printf.printf "%8d  %9.1f%%  %11.1f%%  %7.1f%%  %7.1f%%\n" n (pct !b)
          (pct !c) (pct !s) (pct !h))
      [ 1; 2; 3; 4; 6; 8 ]
  in
  (* scattered single-cell defects: word sparing shines *)
  capability_table ~title:"scattered single-cell defects" (fun n ->
      I.inject rng ~rows:(Org.rows org) ~cols:(Org.cols org)
        ~mix:I.stuck_at_only ~n);
  (* row-kill defects (broken word line / driver): each defect takes a
     whole row, the case row sparing is built for *)
  Printf.printf "\n";
  capability_table ~title:"row-kill defects (word-line/driver failures)"
    (fun n ->
      List.concat_map
        (fun _ ->
          let r = Random.State.int rng (Org.rows org) in
          List.init (Org.cols org) (fun c ->
              Bisram_faults.Fault.Stuck_at ({ F.row = r; col = c }, true)))
        (List.init n Fun.id));
  Printf.printf
    "(capability: BISRAMGEN repairs up to %d faulty words across <= %d rows;\n\
    \ Chen-Sunada 2 words per subblock + %d spare block; Sawada 1 word.\n\
    \ A killed row's %d words land in one subblock and swamp its two\n\
    \ capture registers — the paper's point 3 of Section III.\n\
    \ 'hybrid' is this repo's future-work extension: the same 4 spare rows\n\
    \ plus 2 word registers behind one parallel CAM — it dominates both\n\
    \ pure schemes in both regimes)\n"
    (Org.spare_words org) org.Org.spares 1 org.Org.bpc;
  (* --- normal-mode delay penalty: sequential vs parallel scaling --- *)
  let big = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:4 () in
  let p = Pr.cda_07u3m1p in
  Printf.printf
    "\naddress-match delay vs repairable entries (0.7 um, 4096 words):\n";
  Printf.printf "%9s  %18s  %18s\n" "entries" "sequential (ns)" "parallel TLB (ns)";
  List.iter
    (fun k ->
      let seq =
        Bisram_baselines.Chen_sunada.delay_penalty ~entries:k p ~org:big
      in
      let spares = if k <= 4 then 4 else if k <= 8 then 8 else 16 in
      let tlb =
        Tlb_timing.delay p
          ~org:(Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares ())
      in
      Printf.printf "%9d  %18.3f  %18.3f\n" k (seq *. 1e9)
        (tlb.Tlb_timing.match_line *. 1e9))
    [ 2; 4; 8; 16 ];
  Printf.printf
    "(the sequential comparison grows linearly with the entry count — the\n\
    \ paper's point 1: impractical for high-speed embedded memories)\n";
  (* --- data backgrounds: Johnson counter vs single pattern --- *)
  let cov_org = Org.make ~words:16 ~bpw:4 ~bpc:4 ~spares:0 () in
  let faults = Coverage.exhaustive_faults ~include_same_word:true cov_org in
  let coupling_cov alg backgrounds =
    let r = Coverage.evaluate cov_org alg ~backgrounds ~faults in
    List.filter_map
      (fun c ->
        match c.Coverage.class_name with
        | "CFin" | "CFid" | "CFst" -> Some (c.Coverage.detected, c.Coverage.injected)
        | _ -> None)
      r.Coverage.per_class
    |> List.fold_left (fun (d, i) (dd, ii) -> (d + dd, i + ii)) (0, 0)
    |> fun (d, i) -> 100.0 *. float_of_int d /. float_of_int (max 1 i)
  in
  let johnson = Datagen.required_backgrounds ~bpw:4 in
  let single = Bisram_baselines.Chen_sunada.backgrounds ~bpw:4 in
  Printf.printf
    "\ncoupling coverage incl. same-word pairs (point 4 of Section III):\n\
    \  IFA-9  + Johnson backgrounds                %.1f%%\n\
    \  IFA-9  + all-0/all-1 only                   %.1f%%\n\
    \  IFA-13 + all-0/all-1 (Chen-Sunada DATAGEN)  %.1f%%\n"
    (coupling_cov Alg.ifa_9 johnson)
    (coupling_cov Alg.ifa_9 single)
    (coupling_cov Alg.ifa_13 single)

(* ------------------------------------------------------------------ *)
(* Transparent BIST (Kebichi-Nicolaidis) *)

let transparent_bist () =
  section "Transparent BIST (Section III reference scheme, implemented)";
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 () in
  let rng = Random.State.make [| 77 |] in
  let m = Model.create org in
  for a = 0 to org.Org.words - 1 do
    Model.write_word m a
      (Word.of_int ~width:8 (Random.State.int rng 256))
  done;
  let module T = Bisram_bist.Transparent in
  let r = T.run_model m Alg.ifa_9 in
  Printf.printf
    "transparent IFA-9 on a loaded clean RAM: detected=%b, contents preserved=%b\n"
    r.T.detected r.T.contents_preserved;
  let mf = Model.create org in
  Model.set_faults mf [ F.Stuck_at ({ F.row = 3; col = 9 }, true) ];
  let rf = T.run_model mf Alg.ifa_9 in
  Printf.printf "transparent IFA-9 on a faulty RAM     : detected=%b\n"
    rf.T.detected;
  Printf.printf
    "test length: standard IFA-9 %dN per background vs transparent %dN, no\n\
     initialization and no destruction of memory state\n"
    (March.ops_per_address Alg.ifa_9)
    (T.transformed_ops_per_address Alg.ifa_9)

(* ------------------------------------------------------------------ *)
(* Monte Carlo fault-injection campaign: differential oracle + escapes *)

let campaign_scenario () =
  section "Monte Carlo campaign: differential oracle and escape hunting";
  let module C = Bisram_campaign.Campaign in
  let summarize label r =
    let h2 = r.C.two_pass and hi = r.C.iterated in
    Printf.printf
      "%-26s: %d trials  clean=%d repaired=%d overflow=%d 2nd-pass=%d\n" label
      r.C.trials_run h2.C.passed_clean h2.C.repaired h2.C.too_many_faulty_rows
      h2.C.fault_in_second_pass;
    Printf.printf
      "%-26s  iterated repaired=%d  escapes=%d  divergences=%d\n" ""
      hi.C.repaired
      (List.length r.C.escapes)
      (List.length r.C.divergences);
    Printf.printf "%-26s  yield observed %.3f / %.3f analytic %.3f\n" ""
      r.C.observed_yield_two_pass r.C.observed_yield_iterated
      (C.analytic_yield r.C.config)
  in
  (* healthy regime: IFA-9 over the full mix - oracle agreement expected *)
  let cfg = C.make_config ~trials:200 ~mode:(C.Uniform 2) ~seed:1999 () in
  summarize "IFA-9, default mix" (C.run cfg);
  (* deliberate coverage hole: MATS+ has no Wait items, so data-retention
     faults escape the march and are caught only by the post-repair sweep *)
  let hole =
    C.make_config ~march:Alg.mats_plus ~mix:I.retention_only ~mode:(C.Uniform 2)
      ~trials:100 ~seed:1999 ()
  in
  let r = C.run hole in
  summarize "MATS+, retention faults" r;
  (match r.C.escapes with
  | f :: _ ->
      Printf.printf
        "first escape: trial %d (seed %d), %d-fault set shrunk to %d-fault\n\
        \ reproducer; replay with `bisramgen campaign --replay %d ...`\n"
        f.C.f_trial f.C.f_seed
        (List.length f.C.f_faults)
        (List.length f.C.f_shrunk)
        f.C.f_seed
  | [] -> Printf.printf "no escapes found (unexpected for this scenario)\n");
  Printf.printf
    "(the campaign runs the microprogrammed controller against the\n\
    \ functional reference as a differential oracle, then sweeps every\n\
    \ repaired RAM for silent escapes; failing fault sets are delta-\n\
    \ debugged to minimal reproducers and each trial's seed replays it)\n"

(* ------------------------------------------------------------------ *)
(* Section VII: fatal-flaw critical area of the 6T template *)

let critical_area () =
  section "Section VII: vdd/gnd short critical area of the 6T cell template";
  let c = Bisram_layout.Leaf.sram_6t () in
  let p = Pr.cda_07u3m1p in
  Printf.printf "%12s %10s %16s\n" "radius (l)" "(um)" "crit. area (l^2)";
  List.iter
    (fun r ->
      Printf.printf "%12d %10.2f %16d\n" r
        (Pr.um_of_lambda p r)
        (Bisram_layout.Critical_area.power_short c ~radius:r))
    [ 1; 2; 4; 6; 8; 10; 12 ];
  (match Bisram_layout.Critical_area.fatal_radius c with
  | Some r ->
      Printf.printf
        "smallest fatal defect radius: %d lambda = %.2f um (paper: near-zero\n\
         critical area for all realistic defect radii)\n"
        r (Pr.um_of_lambda p r)
  | None -> Printf.printf "rails never short\n")

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "BISRAMGEN experiment harness\n";
  Printf.printf "reproducing: Chakraborty et al., \"A Physical Design Tool\n";
  Printf.printf "for Built-In Self-Repairable RAMs\" (DATE'99 / TVLSI 2001)\n";
  table1 ();
  fig4 ();
  fig4_alpha_sensitivity ();
  fig4_flow_validation ();
  fig5 ();
  fig6 ();
  fig7 ();
  table2 ();
  table3 ();
  tlb_delay ();
  controller_stats ();
  coverage ();
  repair_demo ();
  ablation ();
  synthesis ();
  spatial_yield ();
  baseline_comparison ();
  campaign_scenario ();
  transparent_bist ();
  critical_area ();
  Printf.printf "\nAll experiments complete.\n"
