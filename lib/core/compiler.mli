(** The BISRAMGEN compiler: configuration in, complete design out.

    [compile] runs the whole flow of Fig. 1: microprogram the march
    test into the TRPLA, generate the macrocells bottom-up from the
    leaf library, place and route them, and extract the area, timing
    and controller reports — the "guarantees" BISRAMGEN extrapolates
    before committing to a layout. *)

type area_report = {
  array_mm2 : float;  (** regular-row RAM core *)
  base_mm2 : float;  (** core + address/column periphery, no BIST/BISR *)
  logic_mm2 : float;  (** BIST + BISR logic (TRPLA, generators, TLB, STREG) *)
  spare_mm2 : float;  (** spare rows and their row periphery *)
  module_mm2 : float;  (** placed-and-routed module bounding box *)
  base_module_mm2 : float;
      (** bounding box of the floorplanned base RAM (no spares, no
          BIST/BISR) — what a plain compiler would produce *)
  dead_mm2 : float;  (** floorplan dead space *)
  overhead_logic_pct : float;  (** logic / base (Table I's metric) *)
  overhead_total_pct : float;
      (** (module - base_module) / base_module: the full silicon cost of
          self-repair, floorplanning effects included *)
  growth_factor : float;  (** module / base_module, Fig. 4's growth *)
}

type timing_report = {
  access : Bisram_sram.Timing.breakdown;
  access_ns : float;
  tlb : Bisram_bisr.Tlb_timing.estimate;
  tlb_ns : float;
  tlb_maskable : bool;
}

type controller_report = {
  states : int;
  flipflops : int;
  pla_terms : int;
  pla_transistors : int;
  backgrounds : int;
  test_ops : int;  (** RAM operations for the two-pass self-test *)
}

type t = {
  config : Config.t;
  macros : Macros.t;
  controller : Bisram_bist.Controller.t;
  pla : Bisram_bist.Trpla.t;
  floorplan : Bisram_pr.Floorplan.t;
      (** placed; routed only when read through
          {!Bisram_pr.Floorplan.routing} or printed *)
  area : area_report;
  timing : timing_report;
  ctl_report : controller_report;
}

val compile : Config.t -> t

(** The repairable-yield geometry of the compiled design: the logic
    fraction and growth factor come from its measured area, and an
    organization without spare rows is {!Bisram_yield.Repairable.bare}. *)
val yield_geometry : t -> Bisram_yield.Repairable.geometry

(** Run the built-in two-pass self-test/repair against a behavioural
    model carrying the given faults (small organizations only — the
    simulation is word-accurate). *)
val self_test :
  t -> faults:Bisram_faults.Fault.t list ->
  Bisram_bisr.Repair.outcome * Bisram_bist.Controller.report

type pin = { pin_name : string; width : int; dir : string; purpose : string }

(** The module symbol (Fig. 1's "symbols" output): the generated RAM's
    interface pins. *)
val pinout : t -> pin list

(** One-line-per-figure text datasheet. *)
val datasheet : t -> string

(** CIF of the leaf library (small, always safe to write). *)
val leaf_library_cif : t -> (string * string) list

(** Structural Verilog of the BIST/BISR engine: the TRPLA FSM compiled
    to gates, ADDGEN, the DATAGEN Johnson core, the read comparator and
    the TLB CAM — the synthesizable face of the generated self-test
    hardware. *)
val rtl : t -> string
