(* Integration tests for the BISRAMGEN compiler. *)

module Config = Bisram_core.Config
module Compiler = Bisram_core.Compiler
module Macros = Bisram_core.Macros
module Org = Bisram_sram.Org
module F = Bisram_faults.Fault
module Repair = Bisram_bisr.Repair
module Pr = Bisram_tech.Process

let cell r c = { F.row = r; F.col = c }

let small_cfg () =
  Config.make ~process:Pr.cda_07u3m1p ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ()

let fig6_cfg () =
  Config.make ~process:Pr.cda_07u3m1p ~words:4096 ~bpw:128 ~bpc:8 ~spares:4
    ~drive:2 ~strap:32 ()

let test_config_validation () =
  let two_metal = Pr.custom ~name:"old" ~feature_nm:800 ~metal_layers:2 () in
  (match Config.make ~process:two_metal ~words:64 ~bpw:8 ~bpc:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "2-metal process accepted");
  (match
     Config.make ~process:Pr.cda_07u3m1p ~drive:9 ~words:64 ~bpw:8 ~bpc:4 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "drive 9 accepted");
  Alcotest.(check int) "backgrounds bpw/2+1" 5
    (List.length (Config.backgrounds (small_cfg ())))

let test_compile_small () =
  let d = Compiler.compile (small_cfg ()) in
  Alcotest.(check bool) "access time positive" true (d.Compiler.timing.Compiler.access_ns > 0.1);
  Alcotest.(check bool) "module bigger than base" true
    (d.Compiler.area.Compiler.module_mm2 > d.Compiler.area.Compiler.base_mm2);
  Alcotest.(check int) "6 flip-flops" 6 d.Compiler.ctl_report.Compiler.flipflops

let test_compile_fig6_overhead () =
  (* paper: BIST/BISR logic overhead below 7% for realistic sizes *)
  let d = Compiler.compile (fig6_cfg ()) in
  let pct = d.Compiler.area.Compiler.overhead_logic_pct in
  Alcotest.(check bool)
    (Printf.sprintf "logic overhead %.2f%% < 7%%" pct)
    true (pct < 7.0);
  Alcotest.(check bool) "tlb maskable with 4 spares" true
    d.Compiler.timing.Compiler.tlb_maskable;
  (* 64 KB module *)
  Alcotest.(check (float 1e-6)) "64 KB" 64.0
    (Org.kilobits d.Compiler.config.Config.org /. 8.0)

let test_compile_area_consistency () =
  let d = Compiler.compile (small_cfg ()) in
  let a = d.Compiler.area in
  Alcotest.(check bool) "components below module" true
    (a.Compiler.base_mm2 +. a.Compiler.logic_mm2 +. a.Compiler.spare_mm2
    <= a.Compiler.module_mm2 +. 1e-9);
  Alcotest.(check bool) "dead space nonnegative" true (a.Compiler.dead_mm2 >= 0.0)

let test_self_test_clean () =
  let d = Compiler.compile (small_cfg ()) in
  let outcome, report = Compiler.self_test d ~faults:[] in
  Alcotest.(check bool) "clean" true (outcome = Repair.Passed_clean);
  Alcotest.(check bool) "cycles counted" true
    (report.Bisram_bist.Controller.cycles > 0)

let test_self_test_repairs () =
  let d = Compiler.compile (small_cfg ()) in
  let outcome, _ =
    Compiler.self_test d
      ~faults:[ F.Stuck_at (cell 3 9, true); F.Transition (cell 11 0, true) ]
  in
  match outcome with
  | Repair.Repaired rows -> Alcotest.(check (list int)) "rows" [ 3; 11 ] rows
  | Repair.Passed_clean | Repair.Repair_unsuccessful _ ->
      Alcotest.fail "expected repair"

let test_self_test_overflow () =
  let d = Compiler.compile (small_cfg ()) in
  let faults = List.map (fun r -> F.Stuck_at (cell r 0, true)) [ 0; 2; 4; 6; 8 ] in
  let outcome, _ = Compiler.self_test d ~faults in
  Alcotest.(check bool) "unsuccessful" true
    (outcome = Repair.Repair_unsuccessful Repair.Too_many_faulty_rows)

let test_datasheet_contents () =
  let d = Compiler.compile (small_cfg ()) in
  let s = Compiler.datasheet d in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> Alcotest.(check bool) ("mentions " ^ key) true (has key))
    [ "IFA-9"; "access time"; "TLB"; "overhead"; "flip-flops"; "Johnson" ]

let test_pinout () =
  let d = Compiler.compile (small_cfg ()) in
  let pins = Compiler.pinout d in
  let find n = List.find_opt (fun p -> p.Compiler.pin_name = n) pins in
  (match find "A" with
  | Some p -> Alcotest.(check int) "addr width log2(64)" 6 p.Compiler.width
  | None -> Alcotest.fail "no address pin");
  (match find "DOUT" with
  | Some p -> Alcotest.(check int) "data width" 8 p.Compiler.width
  | None -> Alcotest.fail "no data pin");
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (find n <> None))
    [ "WE"; "CS"; "TEST"; "RET"; "BUSY"; "FAIL"; "VDD"; "GND" ]

let test_leaf_library_cif () =
  let d = Compiler.compile (small_cfg ()) in
  let lib = Compiler.leaf_library_cif d in
  Alcotest.(check bool) "several cells" true (List.length lib >= 5);
  List.iter
    (fun (name, cif) ->
      Alcotest.(check bool) (name ^ " nonempty") true (String.length cif > 50))
    lib

let test_macros_scale_with_org () =
  let pla =
    Compiler.(compile (small_cfg ())).Compiler.pla
  in
  let m_small = Macros.generate (small_cfg ()) ~pla in
  let m_big = Macros.generate (fig6_cfg ()) ~pla in
  let area m = Bisram_layout.Macro.area m in
  Alcotest.(check bool) "array grows" true
    (area m_big.Macros.ram_array > area m_small.Macros.ram_array);
  Alcotest.(check bool) "datagen grows with bpw" true
    (area m_big.Macros.datagen > area m_small.Macros.datagen)

let test_floorplan_quality () =
  let d = Compiler.compile (fig6_cfg ()) in
  let fp = d.Compiler.floorplan in
  Alcotest.(check bool)
    (Printf.sprintf "rectangularity %.3f > 0.85"
       fp.Bisram_pr.Floorplan.placement.Bisram_pr.Placer.rectangularity)
    true
    (fp.Bisram_pr.Floorplan.placement.Bisram_pr.Placer.rectangularity > 0.85)

(* ------------------------------------------------------------------ *)
(* Config files *)

module CF = Bisram_core.Config_file

let test_config_file_roundtrip () =
  let text =
    "# comment\nprocess = CDA.5u3m1p\nwords=1024\nbpw = 16 # trailing\n\
     bpc = 4\nspares = 8\nmarch = MATS+\n"
  in
  match CF.of_string text with
  | Ok cfg ->
      Alcotest.(check int) "words" 1024 cfg.Config.org.Org.words;
      Alcotest.(check int) "spares" 8 cfg.Config.org.Org.spares;
      Alcotest.(check string) "march" "MATS+"
        cfg.Config.march.Bisram_bist.March.name;
      Alcotest.(check string) "process" "CDA.5u3m1p"
        cfg.Config.process.Pr.name
  | Error e -> Alcotest.failf "rejected: %s" e

let test_config_file_defaults_and_errors () =
  (match CF.of_string "words = 4096" with
  | Ok cfg -> Alcotest.(check int) "default bpw" 128 cfg.Config.org.Org.bpw
  | Error e -> Alcotest.failf "rejected: %s" e);
  (match CF.of_string "wordz = 4096" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  (match CF.of_string "words = many" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-integer accepted");
  (match CF.of_string "spares = 5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid spares accepted");
  (* the key = value surface shared with explore specs *)
  List.iter
    (fun (text, words) ->
      match CF.of_string text with
      | Ok cfg -> Alcotest.(check int) text words cfg.Config.org.Org.words
      | Error e -> Alcotest.failf "%S rejected: %s" text e)
    [ ("WORDS = 1024", 1024); ("words = 2048 # trailing comment", 2048) ];
  List.iter
    (fun text ->
      match CF.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S accepted" text)
    [ "words ="; "words 1024" ];
  match CF.of_string "march = u(w0); u(r0)" with
  | Ok cfg ->
      Alcotest.(check int) "inline march" 2
        (Bisram_bist.March.ops_per_address cfg.Config.march)
  | Error e -> Alcotest.failf "inline march rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Pin-accurate module model *)

module MM = Bisram_core.Module_model
module Word = Bisram_sram.Word

let mm_small () = MM.create (Compiler.compile (small_cfg ()))

let test_module_normal_rw () =
  let m = mm_small () in
  let idle = MM.idle ~bpw:8 in
  let w = Word.of_int ~width:8 0x3C in
  let _ = MM.cycle m { idle with MM.addr = 17; din = w; we = true; cs = true } in
  let o = MM.cycle m { idle with MM.addr = 17; cs = true } in
  Alcotest.(check bool) "read back" true (Word.equal w o.MM.dout);
  Alcotest.(check bool) "not busy" false o.MM.busy;
  Alcotest.(check bool) "no fail" false o.MM.fail;
  (* chip-select low: no access *)
  let o2 = MM.cycle m { idle with MM.addr = 17 } in
  Alcotest.(check bool) "cs low reads zero" true (Word.equal (Word.zero 8) o2.MM.dout)

let test_module_power_on_self_test_repairs () =
  let m = mm_small () in
  MM.inject m [ F.Stuck_at ({ F.row = 3; col = 9 }, true) ];
  let idle = MM.idle ~bpw:8 in
  (* before the self-test, the faulty address misbehaves *)
  let faulty_addr = 13 in
  let _ = MM.cycle m { idle with MM.addr = faulty_addr; din = Word.zero 8; we = true; cs = true } in
  let bad = MM.cycle m { idle with MM.addr = faulty_addr; cs = true } in
  Alcotest.(check bool) "fault visible pre-test" false
    (Word.equal (Word.zero 8) bad.MM.dout);
  (* pulse TEST: BUSY for that cycle, then repaired *)
  let t = MM.cycle m { idle with MM.test = true } in
  Alcotest.(check bool) "busy during test" true t.MM.busy;
  Alcotest.(check bool) "no fail" false t.MM.fail;
  let w = Word.of_int ~width:8 0x55 in
  let _ = MM.cycle m { idle with MM.addr = faulty_addr; din = w; we = true; cs = true } in
  let o = MM.cycle m { idle with MM.addr = faulty_addr; cs = true } in
  Alcotest.(check bool) "repaired read" true (Word.equal w o.MM.dout);
  (match MM.last_test m with
  | Some r ->
      Alcotest.(check bool) "controller ran" true (r.Bisram_bist.Controller.cycles > 0)
  | None -> Alcotest.fail "no test report")

let test_module_fail_pin_latches () =
  let m = mm_small () in
  MM.inject m
    (List.map (fun r -> F.Stuck_at ({ F.row = r; col = 0 }, true)) [ 1; 3; 5; 7; 9 ]);
  let idle = MM.idle ~bpw:8 in
  let t = MM.cycle m { idle with MM.test = true } in
  Alcotest.(check bool) "fail raised" true t.MM.fail;
  (* FAIL stays latched on subsequent cycles *)
  let o = MM.cycle m { idle with MM.addr = 0; cs = true } in
  Alcotest.(check bool) "fail latched" true o.MM.fail

let test_module_test_level_not_retriggered () =
  let m = mm_small () in
  let idle = MM.idle ~bpw:8 in
  let t1 = MM.cycle m { idle with MM.test = true } in
  (* holding TEST high must not rerun the self-test every cycle *)
  let t2 = MM.cycle m { idle with MM.test = true } in
  Alcotest.(check bool) "first busy" true t1.MM.busy;
  Alcotest.(check bool) "second not busy" false t2.MM.busy;
  (* releasing and pulsing again reruns *)
  let _ = MM.cycle m idle in
  let t3 = MM.cycle m { idle with MM.test = true } in
  Alcotest.(check bool) "re-pulse runs" true t3.MM.busy

(* ------------------------------------------------------------------ *)
(* Simulation model: the transistor-level column *)

let test_column_read_both_polarities () =
  let cfg = small_cfg () in
  Alcotest.(check bool) "read path verifies" true
    (Bisram_core.Simulation_model.verify_read_path cfg)

let test_column_differential_symmetric () =
  let cfg = small_cfg () in
  let r1 = Bisram_core.Simulation_model.simulate_read cfg ~stored:true in
  let r0 = Bisram_core.Simulation_model.simulate_read cfg ~stored:false in
  Alcotest.(check bool) "opposite signs" true
    (r1.Bisram_core.Simulation_model.differential > 0.0
    && r0.Bisram_core.Simulation_model.differential < 0.0);
  Alcotest.(check (float 0.1)) "symmetric"
    r1.Bisram_core.Simulation_model.differential
    (-.r0.Bisram_core.Simulation_model.differential)

let test_spice_deck_contents () =
  let deck = Bisram_core.Simulation_model.spice_deck (small_cfg ()) in
  let has sub =
    let n = String.length deck and m = String.length sub in
    let rec go i = i + m <= n && (String.sub deck i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> Alcotest.(check bool) ("deck has " ^ key) true (has key))
    [ ".MODEL NMOS"; ".MODEL PMOS"; ".TRAN"; ".END"; "M1 "; "VDD " ];
  (* 9 transistors: 3 precharge + 6T cell *)
  let count_m =
    List.length
      (List.filter
         (fun line -> String.length line > 0 && line.[0] = 'M')
         (String.split_on_char '\n' deck))
  in
  Alcotest.(check int) "9 MOS devices" 9 count_m

(* ------------------------------------------------------------------ *)
(* Power *)

let test_power_sanity () =
  let org = Org.make ~words:4096 ~bpw:32 ~bpc:8 () in
  let pw = Bisram_sram.Power.estimate Pr.cda_07u3m1p org ~drive:2.0 in
  Alcotest.(check bool) "write > read (full bitline swing)" true
    (pw.Bisram_sram.Power.write_energy > pw.Bisram_sram.Power.read_energy);
  Alcotest.(check bool) "energies positive" true
    (pw.Bisram_sram.Power.read_energy > 0.0
    && pw.Bisram_sram.Power.static_power > 0.0);
  (* 10-500 pJ/read is the right ballpark for a 5 V 0.7 um 16 KB array *)
  Alcotest.(check bool) "read energy magnitude" true
    (pw.Bisram_sram.Power.read_energy > 1e-12
    && pw.Bisram_sram.Power.read_energy < 1e-9)

let test_power_scales_with_size () =
  let p = Pr.cda_07u3m1p in
  let small_pw =
    Bisram_sram.Power.estimate p (Org.make ~words:1024 ~bpw:8 ~bpc:4 ()) ~drive:2.0
  in
  let big_pw =
    Bisram_sram.Power.estimate p (Org.make ~words:16384 ~bpw:8 ~bpc:4 ()) ~drive:2.0
  in
  Alcotest.(check bool) "bigger array more energy" true
    (big_pw.Bisram_sram.Power.read_energy > small_pw.Bisram_sram.Power.read_energy)

let test_power_current () =
  let org = Org.make ~words:4096 ~bpw:32 ~bpc:8 () in
  let pw = Bisram_sram.Power.estimate Pr.cda_07u3m1p org ~drive:2.0 in
  let i100 = Bisram_sram.Power.supply_current pw ~frequency_hz:100e6 in
  Alcotest.(check bool)
    (Printf.sprintf "Icc at 100 MHz = %.1f mA plausible" (i100 *. 1e3))
    true
    (i100 > 1e-3 && i100 < 1.0);
  (* idle current is the static bias *)
  let idle = Bisram_sram.Power.supply_current pw ~frequency_hz:0.0 in
  Alcotest.(check bool) "idle < active" true (idle < i100)

let () =
  Alcotest.run "core"
    [ ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] )
    ; ( "compiler",
        [ Alcotest.test_case "small compile" `Quick test_compile_small
        ; Alcotest.test_case "fig6 overhead" `Quick test_compile_fig6_overhead
        ; Alcotest.test_case "area consistency" `Quick
            test_compile_area_consistency
        ; Alcotest.test_case "floorplan quality" `Quick test_floorplan_quality
        ; Alcotest.test_case "macros scale" `Quick test_macros_scale_with_org
        ] )
    ; ( "self test",
        [ Alcotest.test_case "clean" `Quick test_self_test_clean
        ; Alcotest.test_case "repairs" `Quick test_self_test_repairs
        ; Alcotest.test_case "overflow" `Quick test_self_test_overflow
        ] )
    ; ( "outputs",
        [ Alcotest.test_case "datasheet" `Quick test_datasheet_contents
        ; Alcotest.test_case "pinout" `Quick test_pinout
        ; Alcotest.test_case "leaf cif" `Quick test_leaf_library_cif
        ] )
    ; ( "config file",
        [ Alcotest.test_case "roundtrip" `Quick test_config_file_roundtrip
        ; Alcotest.test_case "defaults/errors" `Quick
            test_config_file_defaults_and_errors
        ] )
    ; ( "module model",
        [ Alcotest.test_case "normal read/write" `Quick test_module_normal_rw
        ; Alcotest.test_case "power-on repair" `Quick
            test_module_power_on_self_test_repairs
        ; Alcotest.test_case "fail latches" `Quick test_module_fail_pin_latches
        ; Alcotest.test_case "level not retriggered" `Quick
            test_module_test_level_not_retriggered
        ] )
    ; ( "simulation model",
        [ Alcotest.test_case "read both polarities" `Quick
            test_column_read_both_polarities
        ; Alcotest.test_case "differential symmetric" `Quick
            test_column_differential_symmetric
        ; Alcotest.test_case "spice deck" `Quick test_spice_deck_contents
        ] )
    ; ( "power",
        [ Alcotest.test_case "sanity" `Quick test_power_sanity
        ; Alcotest.test_case "scales with size" `Quick
            test_power_scales_with_size
        ; Alcotest.test_case "supply current" `Quick test_power_current
        ] )
    ]
