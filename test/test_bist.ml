(* Tests for the BIST library: march DSL, generators, PLA, engine,
   microprogrammed controller and coverage. *)

module March = Bisram_bist.March
module Alg = Bisram_bist.Algorithms
module Addgen = Bisram_bist.Addgen
module Datagen = Bisram_bist.Datagen
module Trpla = Bisram_bist.Trpla
module Engine = Bisram_bist.Engine
module Controller = Bisram_bist.Controller
module Coverage = Bisram_bist.Coverage
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Model = Bisram_sram.Model
module F = Bisram_faults.Fault
module Repair = Bisram_bisr.Repair
module Tlb = Bisram_bisr.Tlb

let word = Alcotest.testable Word.pp Word.equal
let cell r c = { F.row = r; F.col = c }
let small () = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ()
let bgs8 = Datagen.required_backgrounds ~bpw:8

(* ------------------------------------------------------------------ *)
(* March DSL *)

let test_march_roundtrip () =
  List.iter
    (fun m ->
      let s = March.to_string m in
      let m' = March.of_string ~name:m.March.name s in
      Alcotest.(check bool) (m.March.name ^ " roundtrips") true (March.equal m m'))
    Alg.all

let test_march_complexity () =
  (* IFA-9 is a 12N test with 6 reads per address and retention waits *)
  Alcotest.(check int) "IFA-9 12N" 12 (March.ops_per_address Alg.ifa_9);
  Alcotest.(check int) "IFA-9 reads" 6 (March.reads_per_address Alg.ifa_9);
  Alcotest.(check bool) "IFA-9 retention" true (March.has_retention Alg.ifa_9);
  Alcotest.(check int) "IFA-13 16N" 16 (March.ops_per_address Alg.ifa_13);
  Alcotest.(check int) "MATS+ 5N" 5 (March.ops_per_address Alg.mats_plus);
  Alcotest.(check bool) "MATS+ no retention" false
    (March.has_retention Alg.mats_plus)

let test_extended_library () =
  Alcotest.(check int) "10 algorithms" 10 (List.length Alg.all);
  Alcotest.(check int) "March A 15N" 15 (March.ops_per_address Alg.march_a);
  Alcotest.(check int) "March Y 8N" 8 (March.ops_per_address Alg.march_y);
  Alcotest.(check int) "March LR 14N" 14 (March.ops_per_address Alg.march_lr);
  Alcotest.(check int) "PMOVI 13N" 13 (March.ops_per_address Alg.pmovi);
  (* PMOVI's read-after-write catches mid-array stuck-opens like IFA-13 *)
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Stuck_open (cell 11 0) ];
  Alcotest.(check bool) "PMOVI catches SOF" false
    (Engine.passes m Alg.pmovi ~backgrounds:bgs8);
  (* March Y misses retention (no waits) *)
  let m2 = Model.create (small ()) in
  Model.set_faults m2 [ F.Data_retention (cell 5 0, false) ];
  Alcotest.(check bool) "March Y misses DRF" true
    (Engine.passes m2 Alg.march_y ~backgrounds:bgs8)

let test_march_parse_errors () =
  let bad s =
    match March.of_string ~name:"x" s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "u()";
  bad "z(w0)";
  bad "u(w2)";
  Alcotest.(check bool) "good parse ok" true
    (March.of_string ~name:"ok" "u(w0); D; d(r0)" |> March.has_retention)

(* ------------------------------------------------------------------ *)
(* ADDGEN *)

let test_addgen_up_sequence () =
  let g = Addgen.create ~limit:4 in
  Addgen.reset g ~dir:March.Up;
  let seq = ref [] in
  let wrapped = ref false in
  for _ = 1 to 4 do
    seq := Addgen.value g :: !seq;
    wrapped := Addgen.step g ~dir:March.Up
  done;
  Alcotest.(check (list int)) "0..3" [ 0; 1; 2; 3 ] (List.rev !seq);
  Alcotest.(check bool) "wraps at end" true !wrapped;
  Alcotest.(check int) "back to 0" 0 (Addgen.value g)

let test_addgen_down_sequence () =
  let g = Addgen.create ~limit:4 in
  Addgen.reset g ~dir:March.Down;
  let seq = ref [] in
  for _ = 1 to 4 do
    seq := Addgen.value g :: !seq;
    ignore (Addgen.step g ~dir:March.Down)
  done;
  Alcotest.(check (list int)) "3..0" [ 3; 2; 1; 0 ] (List.rev !seq)

let test_addgen_width () =
  Alcotest.(check int) "1024 -> 10 bits" 10
    (Addgen.width (Addgen.create ~limit:1024));
  Alcotest.(check int) "1000 -> 10 bits" 10
    (Addgen.width (Addgen.create ~limit:1000));
  Alcotest.(check int) "1 -> 0 bits" 0 (Addgen.width (Addgen.create ~limit:1))

(* ------------------------------------------------------------------ *)
(* DATAGEN *)

let test_johnson_cycle () =
  let g = Datagen.create ~bpw:4 in
  let states = ref [] in
  for _ = 0 to 7 do
    states := Word.to_string (Datagen.state g) :: !states;
    Datagen.step g
  done;
  Alcotest.(check (list string))
    "full johnson cycle"
    [ "0000"; "1000"; "1100"; "1110"; "1111"; "0111"; "0011"; "0001" ]
    (List.rev !states);
  Alcotest.check word "period 2*bpw" (Word.zero 4) (Datagen.state g)

let test_required_backgrounds () =
  let bgs = Datagen.required_backgrounds ~bpw:4 in
  Alcotest.(check int) "bpw/2+1 backgrounds" 3 (List.length bgs);
  Alcotest.(check (list string))
    "subset incl all-0 and all-1"
    [ "0000"; "1100"; "1111" ]
    (List.map Word.to_string bgs)

let test_half_cycle_pairwise_coverage () =
  (* The half-cycle set gives every pair of bit positions both equal and
     different values in some background — needed for intra-word
     coupling coverage. *)
  let bpw = 8 in
  let bgs = Datagen.half_cycle_backgrounds ~bpw in
  for i = 0 to bpw - 1 do
    for j = 0 to bpw - 1 do
      if i <> j then begin
        let differs = List.exists (fun b -> Word.get b i <> Word.get b j) bgs in
        let equals = List.exists (fun b -> Word.get b i = Word.get b j) bgs in
        Alcotest.(check bool)
          (Printf.sprintf "pair %d,%d differs" i j)
          true differs;
        Alcotest.(check bool) (Printf.sprintf "pair %d,%d equals" i j) true equals
      end
    done
  done

let test_datagen_width_guard () =
  (* the counter packs its state into one native int, like Word *)
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check int) "max_width accepted" Word.max_width
    (Datagen.bpw (Datagen.create ~bpw:Word.max_width));
  Alcotest.(check bool) "64 rejected" true
    (raises (fun () -> Datagen.create ~bpw:64));
  Alcotest.(check bool) "0 rejected" true
    (raises (fun () -> Datagen.create ~bpw:0))

let prop_johnson_period =
  QCheck.Test.make ~name:"johnson counter period = 2*bpw" ~count:20
    QCheck.(int_range 1 32)
    (fun bpw ->
      let g = Datagen.create ~bpw in
      let start = Datagen.state g in
      let rec go k =
        Datagen.step g;
        if Word.equal (Datagen.state g) start then k
        else if k > (2 * bpw) + 1 then -1
        else go (k + 1)
      in
      go 1 = 2 * bpw)

(* ------------------------------------------------------------------ *)
(* TRPLA *)

let test_pla_eval () =
  (* f0 = a & ~b ; f1 = b *)
  let pla = Trpla.create ~n_inputs:2 ~n_outputs:2 in
  Trpla.add_term pla ~ands:[| Trpla.T; Trpla.F |] ~ors:[| true; false |];
  Trpla.add_term pla ~ands:[| Trpla.X; Trpla.T |] ~ors:[| false; true |];
  let check ins outs =
    Alcotest.(check (array bool)) "eval" outs (Trpla.eval pla ins)
  in
  check [| true; false |] [| true; false |];
  check [| true; true |] [| false; true |];
  check [| false; false |] [| false; false |]

let test_pla_image_roundtrip () =
  let pla = Trpla.create ~n_inputs:3 ~n_outputs:2 in
  Trpla.add_term pla ~ands:[| Trpla.T; Trpla.X; Trpla.F |] ~ors:[| true; true |];
  Trpla.add_term pla ~ands:[| Trpla.F; Trpla.T; Trpla.X |] ~ors:[| false; true |];
  let and_plane = Trpla.and_plane_image pla in
  let or_plane = Trpla.or_plane_image pla in
  Alcotest.(check (list string)) "and image" [ "1-0"; "01-" ] and_plane;
  Alcotest.(check (list string)) "or image" [ "11"; ".1" ] or_plane;
  let pla' = Trpla.of_images ~and_plane ~or_plane in
  for v = 0 to 7 do
    let ins = Array.init 3 (fun i -> v land (1 lsl i) <> 0) in
    Alcotest.(check (array bool))
      "same function" (Trpla.eval pla ins) (Trpla.eval pla' ins)
  done

let test_pla_costs () =
  let pla = Trpla.create ~n_inputs:2 ~n_outputs:1 in
  Trpla.add_term pla ~ands:[| Trpla.T; Trpla.T |] ~ors:[| true |];
  (* 2 AND literals + 1 OR + 1 term pull-up + 1 output pull-up + 4 input
     buffer devices = 9 *)
  Alcotest.(check int) "transistors" 9 (Trpla.transistor_count pla);
  Alcotest.(check bool) "area positive" true
    (Trpla.area_lambda2 Bisram_tech.Rules.scmos pla > 0)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_clean_ram_passes () =
  let m = Model.create (small ()) in
  List.iter
    (fun alg ->
      Alcotest.(check bool)
        (alg.March.name ^ " passes on clean RAM")
        true
        (Engine.passes m alg ~backgrounds:bgs8))
    Alg.all

let test_engine_detects_saf () =
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Stuck_at (cell 3 9, true) ];
  let failures = Engine.run m Alg.ifa_9 ~backgrounds:bgs8 in
  Alcotest.(check bool) "detected" true (failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check int) "row 3" 3 (Org.row_of_addr (small ()) f.Engine.addr))
    failures;
  Alcotest.(check (list int)) "failing rows" [ 3 ]
    (Engine.failing_rows (small ()) failures)

let test_engine_detects_retention_only_with_wait () =
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Data_retention (cell 5 0, false) ];
  Alcotest.(check bool) "IFA-9 catches DRF" false
    (Engine.passes m Alg.ifa_9 ~backgrounds:bgs8);
  Alcotest.(check bool) "MATS+ misses DRF" true
    (Engine.passes m Alg.mats_plus ~backgrounds:bgs8)

let test_engine_op_count () =
  let org = small () in
  Alcotest.(check int) "12N x words x bgs" (12 * 64 * 5)
    (Engine.op_count Alg.ifa_9 org ~backgrounds:5)

(* ------------------------------------------------------------------ *)
(* Controller *)

let hooks_recording tbl limit =
  let count () = Hashtbl.length tbl in
  { Controller.record_fault =
      (fun ~row ->
        if Hashtbl.mem tbl row then `Ok
        else if count () >= limit then `Full
        else begin
          Hashtbl.add tbl row ();
          `Ok
        end)
  ; would_overflow =
      (fun ~row -> (not (Hashtbl.mem tbl row)) && count () >= limit)
  ; enable_remap = (fun () -> ())
  ; faults_recorded = count
  }

let test_controller_clean () =
  let m = Model.create (small ()) in
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  let report = Controller.run ctl m (hooks_recording (Hashtbl.create 4) 4) in
  Alcotest.(check bool) "clean" true
    (report.Controller.outcome = Controller.Passed_clean);
  let datapath_ops = 2 * 12 * 64 * 5 in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d >= ops %d" report.Controller.cycles datapath_ops)
    true
    (report.Controller.cycles >= datapath_ops
    && report.Controller.cycles < 2 * datapath_ops)

let test_controller_state_budget () =
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  Alcotest.(check int) "49 states for IFA-9" 49 (Controller.state_count ctl);
  Alcotest.(check int) "6 flip-flops" 6 (Controller.flipflop_count ctl);
  Alcotest.(check int) "names cover states" 49
    (Array.length (Controller.state_names ctl))

let test_controller_vs_engine_failure_detection () =
  let cases =
    [ []
    ; [ F.Stuck_at (cell 3 9, true) ]
    ; [ F.Transition (cell 7 0, true) ]
    ; [ F.Stuck_open (cell 1 1) ]
    ; [ F.Data_retention (cell 9 4, false) ]
    ]
  in
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  List.iter
    (fun faults ->
      let m1 = Model.create (small ()) in
      Model.set_faults m1 faults;
      let engine_clean = Engine.passes m1 Alg.ifa_9 ~backgrounds:bgs8 in
      let m2 = Model.create (small ()) in
      Model.set_faults m2 faults;
      let r = Controller.run ctl m2 Controller.no_repair_hooks in
      let ctl_clean = r.Controller.outcome = Controller.Passed_clean in
      Alcotest.(check bool) "controller agrees with engine" engine_clean
        ctl_clean)
    cases

(* Every library march, on a clean array and on a faulty one: its
   single-op elements (MATS+'s u(w0)), retention waits (IFA-9, IFA-13)
   and element orders all take the table path and the PLA path alike. *)
let test_controller_pla_agrees () =
  let faulty = [ F.Stuck_at (cell 3 9, true); F.Transition (cell 7 0, false) ] in
  List.iter
    (fun test ->
      let ctl = Controller.compile test ~words:64 ~backgrounds:bgs8 in
      List.iter
        (fun faults ->
          let run f =
            let m = Model.create (small ()) in
            Model.set_faults m faults;
            let rows = Hashtbl.create 4 in
            let r = f ctl m (hooks_recording rows 4) in
            (r, List.sort Int.compare (List.of_seq (Hashtbl.to_seq_keys rows)))
          in
          let r1, rows1 = run Controller.run in
          let r2, rows2 = run Controller.run_via_pla in
          let what =
            Printf.sprintf "%s, %d fault(s): " test.March.name
              (List.length faults)
          in
          Alcotest.(check bool) (what ^ "same outcome") true
            (r1.Controller.outcome = r2.Controller.outcome);
          Alcotest.(check int) (what ^ "same cycles") r1.Controller.cycles
            r2.Controller.cycles;
          Alcotest.(check int) (what ^ "same recorded")
            r1.Controller.faults_recorded r2.Controller.faults_recorded;
          Alcotest.(check (list int)) (what ^ "same rows") rows1 rows2)
        [ []; faulty ])
    Alg.all

let test_controller_pla_size () =
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  let pla = Controller.to_pla ctl in
  Alcotest.(check int) "12 inputs (6 state + 6 cond)" 12 (Trpla.n_inputs pla);
  Alcotest.(check bool) "term count reasonable" true
    (Trpla.term_count pla > Controller.state_count ctl
    && Trpla.term_count pla < 8 * Controller.state_count ctl)

(* A campaign compiles the controller once per configuration: a repeat
   compile (an equal march rebuilt from its notation included) returns
   the same table, and any other words count or background list a new
   one. *)
let test_controller_compile_cached () =
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  let same m ~words ~backgrounds =
    Controller.compile m ~words ~backgrounds == ctl
  in
  Alcotest.(check bool) "repeat compile" true
    (same Alg.ifa_9 ~words:64 ~backgrounds:bgs8);
  Alcotest.(check bool) "equal march" true
    (same
       (March.of_string ~name:"copy" (March.to_string Alg.ifa_9))
       ~words:64 ~backgrounds:bgs8);
  Alcotest.(check bool) "other words" false
    (same Alg.ifa_9 ~words:32 ~backgrounds:bgs8);
  Alcotest.(check bool) "other backgrounds" false
    (same Alg.ifa_9 ~words:64 ~backgrounds:(List.tl bgs8));
  Alcotest.(check bool) "other march" false
    (same Alg.mats_plus ~words:64 ~backgrounds:bgs8)

(* Random march tests: the microprogrammed controller must agree with
   the functional engine on ANY march algorithm, not just the library
   ones. *)

let arb_march =
  let gen_op rng =
    match Random.State.int rng 4 with
    | 0 -> March.W false
    | 1 -> March.W true
    | 2 -> March.R false
    | _ -> March.R true
  in
  let gen_item rng =
    if Random.State.int rng 8 = 0 then March.Wait
    else begin
      let order =
        match Random.State.int rng 3 with
        | 0 -> March.Up
        | 1 -> March.Down
        | _ -> March.Either
      in
      let n_ops = 1 + Random.State.int rng 3 in
      March.Elem { order; ops = List.init n_ops (fun _ -> gen_op rng) }
    end
  in
  QCheck.make
    ~print:(fun m -> March.to_string m)
    (QCheck.Gen.map
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let n = 1 + Random.State.int rng 4 in
         let items = List.init n (fun _ -> gen_item rng) in
         (* ensure at least one element exists *)
         let items =
           if List.exists (function March.Elem _ -> true | March.Wait -> false) items
           then items
           else March.Elem { order = March.Up; ops = [ March.W false ] } :: items
         in
         March.make ~name:"rand" items)
       QCheck.Gen.(int_range 0 1_000_000))

let prop_random_march_roundtrip =
  QCheck.Test.make ~name:"random march notation round-trips" ~count:100
    arb_march
    (fun m -> March.equal m (March.of_string ~name:"rt" (March.to_string m)))

let prop_controller_matches_engine_random_march =
  QCheck.Test.make
    ~name:"controller = two-pass engine on random marches and faults"
    ~count:60
    QCheck.(pair arb_march (int_range 0 1_000_000))
    (fun (march, seed) ->
      let rng = Random.State.make [| seed |] in
      let o = small () in
      let faults =
        Bisram_faults.Injection.inject rng ~rows:(Org.rows o)
          ~cols:(Org.cols o) ~mix:Bisram_faults.Injection.default_mix
          ~n:(Random.State.int rng 3)
      in
      (* reference: the controller's two passes — the second runs over
         whatever the first left in the array, which can expose faults
         (e.g. down-transitions) a single pass cannot *)
      let m1 = Model.create o in
      Model.set_faults m1 faults;
      let pass1 = Engine.run m1 march ~backgrounds:bgs8 in
      let pass2 =
        Engine.run_ram (Engine.ram_of_model m1) march ~backgrounds:bgs8
      in
      let engine_clean = pass1 = [] && pass2 = [] in
      let m2 = Model.create o in
      Model.set_faults m2 faults;
      let ctl = Controller.compile march ~words:o.Org.words ~backgrounds:bgs8 in
      let r = Controller.run ctl m2 Controller.no_repair_hooks in
      engine_clean = (r.Controller.outcome = Controller.Passed_clean))

(* The table-driven run (which fast-forwards its clean-address loops)
   and the PLA-image run (strictly one PLA evaluation per cycle) must
   drive the datapath identically: same outcome, cycles and recorded
   count, the same hook traffic — every recorded row in order, and the
   point (datapath op count) where the remap is enabled — and the same
   final array (every physical row), access counters and sense residue,
   which a word of stuck-open cells read after the run returns whole.
   Faults come from the full mix, spare rows included, and the hooks
   drive a real TLB and remap so pass 2 exercises the spares.  In half
   the cases they are single-cell faults only (stuck-at, transition,
   stuck-open), which spans run through, so the fast-forward takes
   faulty rows and element ends in one jump; of those, a third run the
   march's first element alone, and a third a one-word array, where
   each element's first address is its last. *)
let prop_pla_path_matches_symbolic_random_march =
  QCheck.Test.make ~name:"PLA execution = symbolic on random marches"
    ~count:100
    QCheck.(pair arb_march (int_range 0 1_000_000))
    (fun (march, seed) ->
      let rng = Random.State.make [| seed |] in
      let int k = Random.State.int rng k in
      let single_cell = Random.State.bool rng and shape = int 3 in
      let o =
        if single_cell && shape = 2 then
          Org.make ~words:1 ~bpw:8 ~bpc:1 ~spares:4 ()
        else small ()
      in
      let march =
        if single_cell && shape = 1 then
          March.make ~name:"rand"
            [ List.find
                (function March.Elem _ -> true | March.Wait -> false)
                march.March.items
            ]
        else march
      in
      let open_row = int (Org.total_rows o) and open_col = int o.Org.bpc in
      let faults =
        (if single_cell then
           List.init (int 7) (fun _ ->
               let c = cell (int (Org.total_rows o)) (int (Org.cols o)) in
               match int 3 with
               | 0 -> F.Stuck_at (c, Random.State.bool rng)
               | 1 -> F.Transition (c, Random.State.bool rng)
               | _ -> F.Stuck_open c)
         else
           Bisram_faults.Injection.inject rng ~rows:(Org.total_rows o)
             ~cols:(Org.cols o) ~mix:Bisram_faults.Injection.default_mix
             ~n:(int 7))
        @ List.init o.Org.bpw (fun b ->
              Bisram_faults.Fault.Stuck_open
                { Bisram_faults.Fault.row = open_row
                ; col = (b * o.Org.bpc) + open_col })
      in
      let ctl = Controller.compile march ~words:o.Org.words ~backgrounds:bgs8 in
      let run f =
        let m = Model.create o in
        Model.set_faults m faults;
        let tlb =
          Tlb.create ~spares:o.Org.spares ~regular_rows:(Org.rows o)
        in
        let h = Repair.hooks_of_tlb tlb m in
        let log = ref [] in
        let ops () = Model.reads m + Model.writes m in
        let hooks =
          { h with
            Controller.record_fault =
              (fun ~row ->
                log := `Record row :: !log;
                h.Controller.record_fault ~row)
          ; enable_remap =
              (fun () ->
                log := `Remap (ops ()) :: !log;
                h.Controller.enable_remap ())
          }
        in
        let r = f ctl m hooks in
        let stats = Model.stats m in
        let residue = Model.read_row_word m ~row:open_row ~col:open_col in
        let array =
          List.init (Org.total_rows o) (fun row ->
              List.init o.Org.bpc (fun col -> Model.read_row_word m ~row ~col))
        in
        (r, List.rev !log, stats, residue, array)
      in
      let r1, log1, st1, res1, arr1 = run Controller.run
      and r2, log2, st2, res2, arr2 = run Controller.run_via_pla in
      r1.Controller.outcome = r2.Controller.outcome
      && r1.Controller.cycles = r2.Controller.cycles
      && r1.Controller.faults_recorded = r2.Controller.faults_recorded
      && log1 = log2 && st1 = st2 && res1 = res2 && arr1 = arr2)

(* Only armed word slots leave the packed store, so march spans and the
   controller's fast-forward run through a faulty row's other words.
   That must be invisible to both repair flows: the controller flow
   ([Repair.run]) and the engine flows ([Repair.run_flows]) end the same
   with the fast path on and off — outcomes, TLB rows, cycles, the
   failures of an engine run through the installed remap, every physical
   row (spares included), the sense residue (read back through a word of
   stuck-open cells when one is armed) and the access counts.  Faults
   sit in one or two rows: cross-row CFin/CFid onto victims nothing else
   arms, a row armed by DRFs only, a state-coupling aggressor on an
   unarmed slot, or faults in a spare row. *)
let prop_flows_fast_equals_legacy =
  QCheck.Test.make ~name:"repair flows: fast path = legacy path" ~count:250
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| 0x5107; seed |] in
      let int k = Random.State.int rng k and flip () = Random.State.bool rng in
      let o = small () in
      let spare = Org.rows o and bpc = o.Org.bpc in
      let scenario = int 4 in
      let ra = int spare in
      let rb =
        if scenario = 3 || flip () then spare + int o.Org.spares
        else (ra + 1 + int (spare - 1)) mod spare
      in
      let c row = cell row (int (Org.cols o)) in
      let any row =
        match int 4 with
        | 0 -> F.Stuck_at (c row, flip ())
        | 1 -> F.Transition (c row, flip ())
        | 2 -> F.Stuck_open (c row)
        | _ -> F.Data_retention (c row, flip ())
      in
      let maybe f = if flip () then [ f () ] else [] in
      let coupling () =
        if flip () then F.Coupling_inversion { aggressor = c ra; victim = c rb }
        else
          F.Coupling_idempotent
            { aggressor = c ra; rising = flip (); victim = c rb; forces = flip () }
      in
      let faults =
        match scenario with
        | 0 -> List.init (1 + int 2) (fun _ -> coupling ())
        | 1 ->
            List.init (1 + int 2) (fun _ -> F.Data_retention (c rb, flip ()))
            @ maybe (fun () -> any ra)
        | 2 ->
            F.State_coupling
              { aggressor = c rb; when_state = flip (); victim = c ra
              ; reads_as = flip () }
            :: maybe (fun () -> any ra)
        | _ -> List.init (1 + int 3) (fun _ -> any rb) @ maybe coupling
      in
      let open_at =
        if flip () then Some ((if scenario = 3 then rb else ra), int bpc)
        else None
      in
      let faults =
        match open_at with
        | None -> faults
        | Some (row, col) ->
            faults
            @ List.init o.Org.bpw (fun b -> F.Stuck_open (cell row ((b * bpc) + col)))
      in
      let march =
        [| Alg.ifa_9; Alg.ifa_13; Alg.march_c_minus; Alg.mats_plus |].(int 4)
      in
      let model fast =
        let m = Model.create o in
        Model.set_fast_path m fast;
        Model.set_faults m faults;
        m
      in
      let observe m =
        let residue =
          Option.map (fun (row, col) -> Model.read_row_word m ~row ~col) open_at
        in
        let array =
          List.init (Org.total_rows o) (fun row ->
              List.init bpc (fun col -> Model.read_row_word m ~row ~col))
        in
        (residue, array, Model.reads m, Model.writes m)
      in
      let failures m =
        let fs = Engine.run m march ~backgrounds:bgs8 in
        (fs, Engine.failing_rows o fs)
      in
      let controller fast =
        let m = model fast in
        let outcome, r, tlb = Repair.run m march ~backgrounds:bgs8 in
        let seen = observe m in
        ( (outcome, r.Controller.cycles, r.Controller.faults_recorded)
        , Tlb.mapped_rows tlb, seen, failures m, observe m )
      in
      let engine fast =
        let m = model fast in
        let f = Repair.run_flows m march ~backgrounds:bgs8 in
        let it = f.Repair.iterated in
        let seen = observe m in
        ( (f.Repair.reference, it.Repair.i_outcome, it.Repair.i_rounds)
        , (f.Repair.reference_rows, Tlb.mapped_rows it.Repair.i_tlb)
        , seen, failures m, observe m )
      in
      controller true = controller false && engine true = engine false)

(* The compiled controller keeps the datapath allocation-light: a
   fault-free IFA-9 run compares packed ints, so it allocates next to
   nothing per cycle. *)
let test_controller_allocation_budget () =
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  let m = Model.create (small ()) in
  ignore (Controller.run ctl m Controller.no_repair_hooks);
  let before = Gc.minor_words () in
  let r = Controller.run ctl m Controller.no_repair_hooks in
  let words = Gc.minor_words () -. before in
  let per_cycle = words /. float_of_int r.Controller.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per cycle <= 4" per_cycle)
    true (per_cycle <= 4.0)

(* The march loop drives the model's int API and builds words only for
   a mismatch: a fault-free IFA-9 run over the 64x8 array stays well
   under one minor word per RAM operation. *)
let test_engine_allocation_budget () =
  let m = Model.create (small ()) in
  ignore (Engine.run m Alg.ifa_9 ~backgrounds:bgs8);
  let before = Gc.minor_words () in
  let failures = Engine.run m Alg.ifa_9 ~backgrounds:bgs8 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "fault-free" 0 (List.length failures);
  let ops =
    Engine.op_count Alg.ifa_9 (small ()) ~backgrounds:(List.length bgs8)
  in
  let per_op = words /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per op <= 0.5" per_op)
    true (per_op <= 0.5)

(* Comparing packed ints drops the word-width check [Word.equal] made
   on every read, so the entry points check the backgrounds instead;
   an address the remap sends out of range still raises on access. *)
let test_width_and_range_guards () =
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let bgs4 = Datagen.required_backgrounds ~bpw:4 in
  let ctl4 = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs4 in
  raises "Engine.run, 4-bit backgrounds on 8-bit words" (fun () ->
      Engine.run (Model.create (small ())) Alg.ifa_9 ~backgrounds:bgs4);
  raises "Engine.passes, 4-bit backgrounds" (fun () ->
      Engine.passes (Model.create (small ())) Alg.ifa_9 ~backgrounds:bgs4);
  raises "Controller.run, 4-bit backgrounds" (fun () ->
      Controller.run ctl4 (Model.create (small ())) Controller.no_repair_hooks);
  let off_array () =
    let m = Model.create (small ()) in
    Model.set_remap m (Some (fun _ -> 1000));
    m
  in
  let ctl = Controller.compile Alg.ifa_9 ~words:64 ~backgrounds:bgs8 in
  raises "Engine.run, row out of range" (fun () ->
      Engine.run (off_array ()) Alg.ifa_9 ~backgrounds:bgs8);
  raises "Controller.run, row out of range" (fun () ->
      Controller.run ctl (off_array ()) Controller.no_repair_hooks)

(* ------------------------------------------------------------------ *)
(* Coverage *)

let tiny () = Org.make ~words:16 ~bpw:4 ~bpc:4 ~spares:0 ()
let bgs4 = Datagen.required_backgrounds ~bpw:4

let test_ifa9_exhaustive_coverage () =
  let org = tiny () in
  let faults = Coverage.exhaustive_faults org in
  let r = Coverage.evaluate org Alg.ifa_9 ~backgrounds:bgs4 ~faults in
  List.iter
    (fun c ->
      match c.Coverage.class_name with
      | "SAF" | "TF" | "DRF" ->
          Alcotest.(check (float 0.01))
            (c.Coverage.class_name ^ " coverage 100%")
            100.0
            (Coverage.coverage_pct c)
      | _ -> ())
    r.Coverage.per_class;
  Alcotest.(check bool)
    (Printf.sprintf "total coverage high (%.1f%%)" (Coverage.total_pct r))
    true
    (Coverage.total_pct r > 90.0)

let test_sof_semantics () =
  (* With the sense-amplifier-residue model, a stuck-open cell is seen
     only when the residue carries the complement of the expected value:
     IFA-9 catches it at an element boundary (first address), IFA-13's
     read-after-write catches it everywhere — the reason IFA-13 exists. *)
  let org = small () in
  let m = Model.create org in
  Model.set_faults m [ F.Stuck_open (cell 0 0) ];
  Alcotest.(check bool) "IFA-9 catches SOF at first address" false
    (Engine.passes m Alg.ifa_9 ~backgrounds:bgs8);
  let m2 = Model.create org in
  Model.set_faults m2 [ F.Stuck_open (cell 11 0) ];
  Alcotest.(check bool) "IFA-9 misses mid-array SOF" true
    (Engine.passes m2 Alg.ifa_9 ~backgrounds:bgs8);
  let m3 = Model.create org in
  Model.set_faults m3 [ F.Stuck_open (cell 11 0) ];
  Alcotest.(check bool) "IFA-13 catches mid-array SOF" false
    (Engine.passes m3 Alg.ifa_13 ~backgrounds:bgs8)

let test_ifa13_beats_ifa9_on_sof () =
  let org = tiny () in
  let faults = Coverage.exhaustive_faults org in
  let sof_pct alg =
    let r = Coverage.evaluate org alg ~backgrounds:bgs4 ~faults in
    match
      List.find_opt (fun c -> c.Coverage.class_name = "SOF") r.Coverage.per_class
    with
    | Some c -> Coverage.coverage_pct c
    | None -> Alcotest.fail "no SOF class"
  in
  let p9 = sof_pct Alg.ifa_9 and p13 = sof_pct Alg.ifa_13 in
  Alcotest.(check bool)
    (Printf.sprintf "IFA-13 SOF %.1f%% > IFA-9 SOF %.1f%%" p13 p9)
    true (p13 > p9);
  Alcotest.(check (float 0.01)) "IFA-13 SOF complete" 100.0 p13

let test_ifa9_beats_zero_one () =
  let org = tiny () in
  let faults = Coverage.exhaustive_faults org in
  let ifa = Coverage.evaluate org Alg.ifa_9 ~backgrounds:bgs4 ~faults in
  let zo = Coverage.evaluate org Alg.zero_one ~backgrounds:bgs4 ~faults in
  Alcotest.(check bool)
    (Printf.sprintf "IFA-9 %.1f%% > Zero-One %.1f%%" (Coverage.total_pct ifa)
       (Coverage.total_pct zo))
    true
    (Coverage.total_pct ifa > Coverage.total_pct zo)

(* ------------------------------------------------------------------ *)
(* March synthesis *)

module Synthesis = Bisram_bist.Synthesis

let test_synthesis_saf_tf () =
  (* stuck-at + transition faults need only a short MATS+-like march *)
  let org = tiny () in
  let faults =
    List.filter
      (fun f ->
        match f with
        | F.Stuck_at _ | F.Transition _ -> true
        | F.Stuck_open _ | F.Coupling_inversion _ | F.Coupling_idempotent _
        | F.State_coupling _ | F.Data_retention _ ->
            false)
      (Coverage.exhaustive_faults org)
  in
  let r = Synthesis.synthesize org ~faults ~backgrounds:bgs4 ~target:100.0 in
  Alcotest.(check (float 0.01)) "full coverage" 100.0 r.Synthesis.achieved;
  Alcotest.(check bool)
    (Printf.sprintf "short (%dN vs IFA-9's 12N): %s"
       (March.ops_per_address r.Synthesis.march)
       (March.to_string r.Synthesis.march))
    true
    (March.ops_per_address r.Synthesis.march <= 6);
  (* the synthesized test is valid: passes a clean RAM *)
  let m = Model.create org in
  Alcotest.(check bool) "valid" true
    (Engine.passes m r.Synthesis.march ~backgrounds:bgs4)

let test_synthesis_includes_wait_for_drf () =
  let org = tiny () in
  let faults =
    List.filter
      (fun f -> match f with F.Data_retention _ -> true | _ -> false)
      (Coverage.exhaustive_faults org)
  in
  let r = Synthesis.synthesize org ~faults ~backgrounds:bgs4 ~target:100.0 in
  Alcotest.(check (float 0.01)) "full DRF coverage" 100.0 r.Synthesis.achieved;
  Alcotest.(check bool) "uses a retention wait" true
    (March.has_retention r.Synthesis.march)

let test_synthesis_respects_budget () =
  let org = tiny () in
  let faults = Coverage.exhaustive_faults org in
  let r =
    Synthesis.synthesize ~max_elements:2 org ~faults ~backgrounds:bgs4
      ~target:100.0
  in
  Alcotest.(check bool) "stopped at budget" true
    (List.length r.Synthesis.march.March.items <= 2)

let () =
  Alcotest.run "bist"
    [ ( "march",
        [ Alcotest.test_case "roundtrip" `Quick test_march_roundtrip
        ; Alcotest.test_case "complexity" `Quick test_march_complexity
        ; Alcotest.test_case "extended library" `Quick test_extended_library
        ; Alcotest.test_case "parse errors" `Quick test_march_parse_errors
        ] )
    ; ( "addgen",
        [ Alcotest.test_case "up" `Quick test_addgen_up_sequence
        ; Alcotest.test_case "down" `Quick test_addgen_down_sequence
        ; Alcotest.test_case "width" `Quick test_addgen_width
        ] )
    ; ( "datagen",
        [ Alcotest.test_case "johnson cycle" `Quick test_johnson_cycle
        ; Alcotest.test_case "required backgrounds" `Quick
            test_required_backgrounds
        ; Alcotest.test_case "pairwise coverage" `Quick
            test_half_cycle_pairwise_coverage
        ; Alcotest.test_case "width guard" `Quick test_datagen_width_guard
        ; QCheck_alcotest.to_alcotest prop_johnson_period
        ] )
    ; ( "trpla",
        [ Alcotest.test_case "eval" `Quick test_pla_eval
        ; Alcotest.test_case "image roundtrip" `Quick test_pla_image_roundtrip
        ; Alcotest.test_case "costs" `Quick test_pla_costs
        ] )
    ; ( "engine",
        [ Alcotest.test_case "clean passes" `Quick test_engine_clean_ram_passes
        ; Alcotest.test_case "detects SAF" `Quick test_engine_detects_saf
        ; Alcotest.test_case "retention needs wait" `Quick
            test_engine_detects_retention_only_with_wait
        ; Alcotest.test_case "op count" `Quick test_engine_op_count
        ] )
    ; ( "controller",
        [ Alcotest.test_case "clean run" `Quick test_controller_clean
        ; Alcotest.test_case "state budget" `Quick test_controller_state_budget
        ; Alcotest.test_case "agrees with engine" `Quick
            test_controller_vs_engine_failure_detection
        ; Alcotest.test_case "PLA path agrees" `Quick test_controller_pla_agrees
        ; Alcotest.test_case "PLA size" `Quick test_controller_pla_size
        ; Alcotest.test_case "compile cached per configuration" `Quick
            test_controller_compile_cached
        ; Alcotest.test_case "allocation budget" `Quick
            test_controller_allocation_budget
        ; Alcotest.test_case "engine allocation budget" `Quick
            test_engine_allocation_budget
        ; Alcotest.test_case "width and range guards" `Quick
            test_width_and_range_guards
        ; QCheck_alcotest.to_alcotest prop_random_march_roundtrip
        ; QCheck_alcotest.to_alcotest prop_controller_matches_engine_random_march
        ; QCheck_alcotest.to_alcotest prop_pla_path_matches_symbolic_random_march
        ; QCheck_alcotest.to_alcotest prop_flows_fast_equals_legacy
        ] )
    ; ( "coverage",
        [ Alcotest.test_case "IFA-9 exhaustive" `Slow
            test_ifa9_exhaustive_coverage
        ; Alcotest.test_case "SOF semantics" `Quick test_sof_semantics
        ; Alcotest.test_case "IFA-13 > IFA-9 on SOF" `Slow
            test_ifa13_beats_ifa9_on_sof
        ; Alcotest.test_case "IFA-9 > Zero-One" `Slow test_ifa9_beats_zero_one
        ] )
    ; ( "synthesis",
        [ Alcotest.test_case "SAF+TF minimal" `Slow test_synthesis_saf_tf
        ; Alcotest.test_case "DRF needs wait" `Slow
            test_synthesis_includes_wait_for_drf
        ; Alcotest.test_case "budget" `Slow test_synthesis_respects_budget
        ] )
    ]
