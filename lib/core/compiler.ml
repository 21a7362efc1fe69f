module Org = Bisram_sram.Org
module Timing = Bisram_sram.Timing
module Model = Bisram_sram.Model
module Controller = Bisram_bist.Controller
module Datagen = Bisram_bist.Datagen
module Trpla = Bisram_bist.Trpla
module March = Bisram_bist.March
module Tlb_timing = Bisram_bisr.Tlb_timing
module Macro = Bisram_layout.Macro
module Leaf = Bisram_layout.Leaf
module Cif = Bisram_layout.Cif
module Floorplan = Bisram_pr.Floorplan
module Pr = Bisram_tech.Process

type area_report = {
  array_mm2 : float;
  base_mm2 : float;
  logic_mm2 : float;
  spare_mm2 : float;
  module_mm2 : float;
  base_module_mm2 : float;
  dead_mm2 : float;
  overhead_logic_pct : float;
  overhead_total_pct : float;
  growth_factor : float;
}

type timing_report = {
  access : Timing.breakdown;
  access_ns : float;
  tlb : Tlb_timing.estimate;
  tlb_ns : float;
  tlb_maskable : bool;
}

type controller_report = {
  states : int;
  flipflops : int;
  pla_terms : int;
  pla_transistors : int;
  backgrounds : int;
  test_ops : int;
}

type t = {
  config : Config.t;
  macros : Macros.t;
  controller : Controller.t;
  pla : Trpla.t;
  floorplan : Floorplan.t;
  area : area_report;
  timing : timing_report;
  ctl_report : controller_report;
}

let mm2 process lambda2 =
  let nm = float_of_int process.Pr.lambda_nm in
  float_of_int lambda2 *. nm *. nm *. 1e-12

let area_report cfg macros floorplan ~base_module_mm2 =
  let p = cfg.Config.process in
  let org = cfg.Config.org in
  let rows = Org.rows org and total = Org.total_rows org in
  let cols = Org.cols org and total_cols = Org.total_cols org in
  (* 2D regular fractions: the array carries spare rows and spare
     columns; row periphery scales with rows, per-column periphery
     (precharge) with physical columns.  With spare_cols = 0 both
     column factors are exactly 1.0 and every formula reduces to the
     historical row-only accounting bit-for-bit. *)
  let frac_regular = float_of_int rows /. float_of_int total in
  let frac_regular_cols = float_of_int cols /. float_of_int total_cols in
  let a m = mm2 p (Macro.area m) in
  let array_total = a macros.Macros.ram_array in
  let row_periph_total =
    a macros.Macros.row_decoder +. a macros.Macros.wl_drivers
  in
  let array_mm2 = array_total *. frac_regular *. frac_regular_cols in
  let base_mm2 =
    array_mm2
    +. (row_periph_total *. frac_regular)
    +. (a macros.Macros.precharge *. frac_regular_cols)
    +. a macros.Macros.column_mux
    +. a macros.Macros.sense_amps +. a macros.Macros.column_decoder
  in
  let logic_mm2 =
    a macros.Macros.addgen +. a macros.Macros.datagen +. a macros.Macros.tlb
    +. (match macros.Macros.csteer with Some m -> a m | None -> 0.0)
    +. a macros.Macros.trpla +. a macros.Macros.streg
  in
  let spare_mm2 =
    (* the row-only branch keeps the historical expression so existing
       reports stay byte-identical (distributing the product would
       perturb the last ulp) *)
    if org.Org.spare_cols = 0 then
      (array_total +. row_periph_total) *. (1.0 -. frac_regular)
    else
      (array_total *. (1.0 -. (frac_regular *. frac_regular_cols)))
      +. (row_periph_total *. (1.0 -. frac_regular))
      +. (a macros.Macros.precharge *. (1.0 -. frac_regular_cols))
  in
  let module_mm2 =
    mm2 p
      (Bisram_geometry.Rect.area floorplan.Floorplan.placement.Bisram_pr.Placer.bbox)
  in
  let dead_mm2 =
    mm2 p floorplan.Floorplan.placement.Bisram_pr.Placer.dead_space
  in
  { array_mm2
  ; base_mm2
  ; logic_mm2
  ; spare_mm2
  ; module_mm2
  ; base_module_mm2
  ; dead_mm2
  ; overhead_logic_pct = 100.0 *. logic_mm2 /. base_mm2
  ; overhead_total_pct =
      100.0 *. (module_mm2 -. base_module_mm2) /. base_module_mm2
  ; growth_factor = module_mm2 /. base_module_mm2
  }

let compile cfg =
  let org = cfg.Config.org in
  (* Wide-word organizations (bpw > Word.max_width) are layout-only:
     their backgrounds cannot be represented as packed words, but the
     controller needs only the background count to compile. *)
  let n_backgrounds = Datagen.required_count ~bpw:org.Org.bpw in
  let controller =
    if Org.simulable org then
      Controller.compile cfg.Config.march ~words:org.Org.words
        ~backgrounds:(Config.backgrounds cfg)
    else
      Controller.compile_layout cfg.Config.march ~words:org.Org.words
        ~n_backgrounds
  in
  let pla = Controller.to_pla controller in
  let macros = Macros.generate cfg ~pla in
  let floorplan =
    Floorplan.make cfg.Config.process.Pr.rules (Macros.blocks macros)
  in
  (* floorplan the plain (no-spares, no-BIST/BISR) module to measure the
     true silicon cost of self-repair *)
  let base_module_mm2 =
    let base_org =
      Org.make ~spares:0 ~words:org.Org.words ~bpw:org.Org.bpw
        ~bpc:org.Org.bpc ()
    in
    let base_cfg = { cfg with Config.org = base_org } in
    let base_macros = Macros.generate base_cfg ~pla in
    let base_fp =
      Bisram_pr.Placer.place (Macros.base_blocks base_macros)
    in
    mm2 cfg.Config.process
      (Bisram_geometry.Rect.area base_fp.Bisram_pr.Placer.bbox)
  in
  let area = area_report cfg macros floorplan ~base_module_mm2 in
  let access = Timing.access_time cfg.Config.process org ~drive:(float_of_int cfg.Config.drive) in
  let tlb = Tlb_timing.delay cfg.Config.process ~org in
  let timing =
    { access
    ; access_ns = Timing.total access *. 1e9
    ; tlb
    ; tlb_ns = Tlb_timing.total tlb *. 1e9
    ; tlb_maskable =
        Tlb_timing.maskable cfg.Config.process ~org
          ~drive:(float_of_int cfg.Config.drive)
    }
  in
  let ctl_report =
    { states = Controller.state_count controller
    ; flipflops = Controller.flipflop_count controller
    ; pla_terms = Trpla.term_count pla
    ; pla_transistors = Trpla.transistor_count pla
    ; backgrounds = n_backgrounds
    ; test_ops =
        2 * March.ops_per_address cfg.Config.march * org.Org.words
        * n_backgrounds
    }
  in
  { config = cfg; macros; controller; pla; floorplan; area; timing; ctl_report }

(* logic share and growth factor measured from the compiled module;
   without spares the array is bare (any defect kills it) *)
let yield_geometry t =
  let org = t.config.Config.org and a = t.area in
  if org.Org.spares = 0 then
    Bisram_yield.Repairable.bare ~regular_rows:(Org.rows org)
  else
    Bisram_yield.Repairable.make ~regular_rows:(Org.rows org)
      ~spares:org.Org.spares
      ~logic_fraction:(a.logic_mm2 /. a.module_mm2)
      ~growth_factor:(Float.max 1.0 a.growth_factor)

let self_test t ~faults =
  let model = Model.create t.config.Config.org in
  Model.set_faults model faults;
  let backgrounds = Config.backgrounds t.config in
  let outcome, report, _tlb =
    Bisram_bisr.Repair.run model t.config.Config.march ~backgrounds
  in
  (outcome, report)

type pin = { pin_name : string; width : int; dir : string; purpose : string }

let pinout t =
  let org = t.config.Config.org in
  let log2i n =
    let rec go acc k = if k >= n then acc else go (acc + 1) (k * 2) in
    go 0 1
  in
  let abits = max 1 (log2i org.Org.words) in
  [ { pin_name = "A"; width = abits; dir = "in"; purpose = "word address" }
  ; { pin_name = "DIN"; width = org.Org.bpw; dir = "in"; purpose = "write data" }
  ; { pin_name = "DOUT"; width = org.Org.bpw; dir = "out"; purpose = "read data" }
  ; { pin_name = "WE"; width = 1; dir = "in"; purpose = "write enable" }
  ; { pin_name = "CS"; width = 1; dir = "in"; purpose = "chip select" }
  ; { pin_name = "TEST"; width = 1; dir = "in"; purpose = "BIST/BISR start" }
  ; { pin_name = "RET"; width = 1; dir = "in"
    ; purpose = "retention-wait acknowledge from the processor" }
  ; { pin_name = "BUSY"; width = 1; dir = "out"; purpose = "self-test running" }
  ; { pin_name = "FAIL"; width = 1; dir = "out"
    ; purpose = "Repair Unsuccessful status" }
  ; { pin_name = "VDD"; width = 1; dir = "supply"; purpose = "power" }
  ; { pin_name = "GND"; width = 1; dir = "supply"; purpose = "ground" }
  ]

let datasheet t =
  let cfg = t.config in
  let org = cfg.Config.org in
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "BISRAMGEN datasheet";
  p "===================";
  p "organization      : %d words x %d bits (bpc=%d)" org.Org.words org.Org.bpw
    org.Org.bpc;
  p "capacity          : %.0f Kb (%.1f KB)" (Org.kilobits org)
    (Org.kilobits org /. 8.0);
  p "rows              : %d regular + %d spare" (Org.rows org) org.Org.spares;
  if org.Org.spare_cols > 0 then
    p "columns           : %d regular + %d spare (2D BIRA repair)"
      (Org.cols org) org.Org.spare_cols;
  p "process           : %s" cfg.Config.process.Pr.name;
  p "march algorithm   : %s" cfg.Config.march.March.name;
  p "backgrounds       : %d (Johnson counter)" t.ctl_report.backgrounds;
  p "";
  p "access time       : %.2f ns" t.timing.access_ns;
  let wt =
    Timing.write_time cfg.Config.process org
      ~drive:(float_of_int cfg.Config.drive)
  in
  let itf =
    Timing.interface cfg.Config.process org
      ~drive:(float_of_int cfg.Config.drive)
  in
  p "write time        : %.2f ns" (wt *. 1e9);
  p "setup/hold        : addr %.2f ns, data %.2f ns, hold %.2f ns"
    (itf.Timing.address_setup *. 1e9)
    (itf.Timing.data_setup *. 1e9)
    (itf.Timing.hold *. 1e9);
  p "TLB delay         : %.2f ns (%s)" t.timing.tlb_ns
    (if t.timing.tlb_maskable then "maskable" else "NOT maskable");
  let pw =
    Bisram_sram.Power.estimate cfg.Config.process org
      ~drive:(float_of_int cfg.Config.drive)
  in
  let f_access = 1.0 /. (t.timing.access_ns *. 1e-9) in
  p "energy            : %.2f pJ/read, %.2f pJ/write"
    (pw.Bisram_sram.Power.read_energy *. 1e12)
    (pw.Bisram_sram.Power.write_energy *. 1e12);
  p "supply current    : %.2f mA at %.0f MHz access rate"
    (Bisram_sram.Power.supply_current pw ~frequency_hz:f_access *. 1e3)
    (f_access /. 1e6);
  p "";
  p "module area       : %.3f mm^2 (plain module: %.3f mm^2)"
    t.area.module_mm2 t.area.base_module_mm2;
  p "base RAM area     : %.3f mm^2" t.area.base_mm2;
  p "BIST/BISR logic   : %.4f mm^2 (%.2f%% overhead)" t.area.logic_mm2
    t.area.overhead_logic_pct;
  (if t.config.Config.org.Org.spare_cols > 0 then
     p "spare rows+cols   : %.4f mm^2" t.area.spare_mm2
   else p "spare rows        : %.4f mm^2" t.area.spare_mm2);
  p "total overhead    : %.2f%% vs the plain module (growth factor %.3f)"
    t.area.overhead_total_pct t.area.growth_factor;
  p "";
  p "controller        : %d states, %d flip-flops" t.ctl_report.states
    t.ctl_report.flipflops;
  p "TRPLA             : %d terms, %d transistors" t.ctl_report.pla_terms
    t.ctl_report.pla_transistors;
  p "self-test length  : %d RAM operations (two passes)"
    t.ctl_report.test_ops;
  p "";
  p "symbol (pinout)";
  List.iter
    (fun pin ->
      p "  %-5s %-8s %-6s %s" pin.pin_name
        (if pin.width = 1 then "" else Printf.sprintf "[%d:0]" (pin.width - 1))
        pin.dir pin.purpose)
    (pinout t);
  Buffer.contents buf

let rtl t =
  let org = t.config.Config.org in
  let module B = Bisram_gates.Builders in
  let module N = Bisram_gates.Netlist in
  let abits = max 1 (B.bits_for org.Org.words) in
  let rbits = max 1 (B.bits_for (Org.rows org)) in
  String.concat "\n"
    [ Bisram_bist.Pla_gates.controller_verilog t.controller
    ; N.to_verilog ~name:"addgen" (B.up_down_counter ~bits:abits)
    ; N.to_verilog ~name:"datagen_core"
        (B.johnson_counter ~bits:org.Org.bpw)
    ; N.to_verilog ~name:"read_comparator" (B.comparator ~bits:org.Org.bpw)
    ; N.to_verilog ~name:"tlb_cam"
        (B.cam ~entries:(max 1 org.Org.spares) ~bits:rbits)
    ]

let leaf_library_cif t =
  let p = t.config.Config.process in
  let cells =
    [ Leaf.sram_6t (); Leaf.precharge (); Leaf.sense_amp ()
    ; Leaf.wordline_driver ~drive:t.config.Config.drive
    ; Leaf.row_decoder_slice ~bits:(Macros.row_bits t.config)
    ; Leaf.column_mux ~bpc:t.config.Config.org.Org.bpc
    ; Leaf.pla_programmed
        ~and_plane:(Trpla.and_plane_image t.pla)
        ~or_plane:(Trpla.or_plane_image t.pla)
    ]
  in
  List.map (fun c -> (c.Bisram_layout.Cell.name, Cif.of_cell p c)) cells
