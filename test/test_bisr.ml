(* Tests for the BISR library: TLB, two-pass repair, repairability
   analysis and TLB timing. *)

module Tlb = Bisram_bisr.Tlb
module Repair = Bisram_bisr.Repair
module Analysis = Bisram_bisr.Analysis
module Tlb_timing = Bisram_bisr.Tlb_timing
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Model = Bisram_sram.Model
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen
module F = Bisram_faults.Fault
module I = Bisram_faults.Injection
module Pr = Bisram_tech.Process

let cell r c = { F.row = r; F.col = c }
let small () = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ()
let bgs8 = Datagen.required_backgrounds ~bpw:8

(* ------------------------------------------------------------------ *)
(* TLB *)

let test_tlb_basic_mapping () =
  let t = Tlb.create ~spares:4 ~regular_rows:16 in
  Alcotest.(check int) "unmapped passthrough" 7 (Tlb.remap t ~row:7);
  Alcotest.(check bool) "record" true (Tlb.record t ~row:7 = `Ok);
  Alcotest.(check int) "mapped to first spare" 16 (Tlb.remap t ~row:7);
  Alcotest.(check bool) "re-record is noop" true (Tlb.record t ~row:7 = `Ok);
  Alcotest.(check int) "entries" 1 (Tlb.entries t);
  Alcotest.(check bool) "second row" true (Tlb.record t ~row:3 = `Ok);
  Alcotest.(check int) "second spare" 17 (Tlb.remap t ~row:3);
  Alcotest.(check (list int)) "mapped rows in order" [ 7; 3 ] (Tlb.mapped_rows t)

let test_tlb_overflow () =
  let t = Tlb.create ~spares:2 ~regular_rows:16 in
  Alcotest.(check bool) "r1" true (Tlb.record t ~row:1 = `Ok);
  Alcotest.(check bool) "r2" true (Tlb.record t ~row:2 = `Ok);
  Alcotest.(check bool) "full" true (Tlb.is_full t);
  Alcotest.(check bool) "overflow flagged" true (Tlb.would_overflow t ~row:3);
  Alcotest.(check bool) "existing row no overflow" false
    (Tlb.would_overflow t ~row:1);
  Alcotest.(check bool) "record fails" true (Tlb.record t ~row:3 = `Full)

let test_tlb_remap_spare () =
  let t = Tlb.create ~spares:3 ~regular_rows:16 in
  ignore (Tlb.record t ~row:5);
  Alcotest.(check int) "spare 0" 16 (Tlb.remap t ~row:5);
  Alcotest.(check bool) "iterate" true (Tlb.remap_spare t ~row:5 = `Ok);
  Alcotest.(check int) "now spare 1" 17 (Tlb.remap t ~row:5);
  Alcotest.(check int) "two spares consumed" 2 (Tlb.entries t);
  Alcotest.(check (list int)) "still one mapped row" [ 5 ] (Tlb.mapped_rows t);
  Alcotest.(check bool) "still increasing" true
    (Tlb.allocation_is_strictly_increasing t)

let test_tlb_clear () =
  let t = Tlb.create ~spares:2 ~regular_rows:8 in
  ignore (Tlb.record t ~row:1);
  Tlb.clear t;
  Alcotest.(check int) "empty" 0 (Tlb.entries t);
  Alcotest.(check int) "passthrough again" 1 (Tlb.remap t ~row:1)

let prop_tlb_strictly_increasing =
  QCheck.Test.make ~name:"spare allocation strictly increasing" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 20) (int_range 0 15))
    (fun rows ->
      let t = Tlb.create ~spares:16 ~regular_rows:16 in
      List.iter (fun row -> ignore (Tlb.record t ~row)) rows;
      Tlb.allocation_is_strictly_increasing t)

let prop_tlb_distinct_spares =
  QCheck.Test.make ~name:"distinct rows get distinct spares" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 16) (int_range 0 63))
    (fun rows ->
      let t = Tlb.create ~spares:16 ~regular_rows:64 in
      List.iter (fun row -> ignore (Tlb.record t ~row)) rows;
      let mapped = Tlb.mapped_rows t in
      let spares = List.map (fun row -> Tlb.remap t ~row) mapped in
      List.length (List.sort_uniq Int.compare spares) = List.length spares)

(* The TLB against a newest-entry list model: random record /
   remap_spare / clear sequences, and after every step each lookup
   (remap, spare_of, would_overflow) on every row — out-of-range rows
   included — plus mapped_rows and the entry count must match. *)
let prop_tlb_matches_list_model =
  let regular_rows = 12 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [ (5, map (fun r -> `Record r) (int_range 0 (regular_rows - 1)))
        ; (3, map (fun r -> `Remap_spare r) (int_range 0 (regular_rows - 1)))
        ; (1, return `Clear)
        ])
  in
  QCheck.Test.make ~name:"TLB matches a newest-entry list model" ~count:300
    QCheck.(pair (int_range 0 6) (make Gen.(list_size (int_range 0 30) gen_op)))
    (fun (spares, ops) ->
      let t = Tlb.create ~spares ~regular_rows in
      (* model: (row, spare) newest first, and the next spare index *)
      let entries = ref [] and next = ref 0 in
      let find row = List.assoc_opt row !entries in
      let alloc row =
        if !next >= spares then `Full
        else begin
          entries := (row, !next) :: !entries;
          incr next;
          `Ok
        end
      in
      let agrees () =
        let rows = List.init (regular_rows + 2) (fun i -> i - 1) in
        List.for_all
          (fun row ->
            let spare = find row in
            Tlb.spare_of t ~row = spare
            && Tlb.remap t ~row
               = (match spare with Some s -> regular_rows + s | None -> row)
            && (row < 0 || row >= regular_rows
               || Tlb.would_overflow t ~row = (spare = None && !next >= spares)))
          rows
        && Tlb.mapped_rows t
           = List.rev
               (List.filter_map
                  (fun (row, s) -> if find row = Some s then Some row else None)
                  !entries)
        && Tlb.entries t = !next
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | `Record row ->
                Tlb.record t ~row
                = (match find row with Some _ -> `Ok | None -> alloc row)
            | `Remap_spare row -> (
                let expect =
                  match find row with None -> None | Some _ -> Some (alloc row)
                in
                match Tlb.remap_spare t ~row with
                | got -> expect = Some got
                | exception Invalid_argument _ -> expect = None)
            | `Clear ->
                Tlb.clear t;
                entries := [];
                next := 0;
                true
          in
          same && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Two-pass repair *)

let with_faults faults =
  let m = Model.create (small ()) in
  Model.set_faults m faults;
  m

let test_repair_clean () =
  let m = with_faults [] in
  let outcome, _, _ = Repair.run m Alg.ifa_9 ~backgrounds:bgs8 in
  Alcotest.(check bool) "clean" true (outcome = Repair.Passed_clean)

let test_repair_two_rows () =
  let m = with_faults
      [ F.Stuck_at (cell 3 9, true); F.Transition (cell 7 0, true) ]
  in
  let outcome, _, tlb = Repair.run m Alg.ifa_9 ~backgrounds:bgs8 in
  (match outcome with
  | Repair.Repaired rows -> Alcotest.(check (list int)) "rows" [ 3; 7 ] rows
  | other ->
      Alcotest.failf "expected repair, got %s"
        (Format.asprintf "%a" Repair.pp_outcome other));
  (* normal-mode accesses now divert and the RAM reads clean *)
  let w = Word.of_int ~width:8 0x5A in
  Model.write_word m 13 w;
  Alcotest.(check bool) "repaired read" true (Word.equal w (Model.read_word m 13));
  Alcotest.(check int) "two spares used" 2 (Tlb.entries tlb)

let test_repair_too_many_rows () =
  (* 5 faulty rows > 4 spares *)
  let faults =
    List.map (fun r -> F.Stuck_at (cell r 0, true)) [ 1; 3; 5; 7; 9 ]
  in
  let m = with_faults faults in
  let outcome, _, _ = Repair.run m Alg.ifa_9 ~backgrounds:bgs8 in
  Alcotest.(check bool) "unsuccessful" true
    (outcome = Repair.Repair_unsuccessful Repair.Too_many_faulty_rows)

let test_repair_faulty_spare_detected () =
  (* fault in spare row 16: pass 2 hits it after remap *)
  let spare = Org.rows (small ()) in
  let m =
    with_faults [ F.Stuck_at (cell 3 9, true); F.Stuck_at (cell spare 9, true) ]
  in
  let outcome, _, _ = Repair.run m Alg.ifa_9 ~backgrounds:bgs8 in
  Alcotest.(check bool) "second-pass failure" true
    (outcome = Repair.Repair_unsuccessful Repair.Fault_in_second_pass)

let test_repair_column_failure_unrepairable () =
  (* an entire column faulty swamps row redundancy *)
  let org = small () in
  let faults =
    List.init (Org.rows org) (fun r -> F.Stuck_at (cell r 5, true))
  in
  let m = with_faults faults in
  let outcome, _, _ = Repair.run m Alg.ifa_9 ~backgrounds:bgs8 in
  (match outcome with
  | Repair.Repair_unsuccessful _ -> ()
  | _ -> Alcotest.fail "column failure must be unrepairable");
  Alcotest.(check (list int)) "column flagged" [ 5 ]
    (Analysis.swamped_columns org faults)

let test_repair_reference_agrees () =
  let rng = Random.State.make [| 7 |] in
  let org = small () in
  for _ = 1 to 25 do
    let n = Random.State.int rng 7 in
    let faults =
      I.inject rng ~rows:(Org.rows org) ~cols:(Org.cols org)
        ~mix:I.default_mix ~n
    in
    let m1 = with_faults faults in
    let o1, _, _ = Repair.run m1 Alg.ifa_9 ~backgrounds:bgs8 in
    let m2 = with_faults faults in
    let o2, _ = Repair.run_reference m2 Alg.ifa_9 ~backgrounds:bgs8 in
    let tag = function
      | Repair.Passed_clean -> "clean"
      | Repair.Repaired _ -> "repaired"
      | Repair.Repair_unsuccessful _ -> "unsuccessful"
    in
    Alcotest.(check string) "controller = reference" (tag o2) (tag o1)
  done

let test_repair_iterated_fixes_faulty_spare () =
  (* one faulty row + one faulty spare: plain two-pass fails, iterated
     flow walks to the next spare *)
  let spare0 = Org.rows (small ()) in
  let faults =
    [ F.Stuck_at (cell 3 9, true); F.Stuck_at (cell spare0 9, true) ]
  in
  let m = with_faults faults in
  let o_plain, _ = Repair.run_reference m Alg.ifa_9 ~backgrounds:bgs8 in
  Alcotest.(check bool) "plain fails" true
    (o_plain = Repair.Repair_unsuccessful Repair.Fault_in_second_pass);
  let m2 = with_faults faults in
  let { Repair.i_outcome = o_iter; i_tlb = tlb; _ } =
    Repair.run_iterated_result m2 Alg.ifa_9 ~backgrounds:bgs8
  in
  (match o_iter with
  | Repair.Repaired rows -> Alcotest.(check (list int)) "row 3" [ 3 ] rows
  | other ->
      Alcotest.failf "iterated should repair: %s"
        (Format.asprintf "%a" Repair.pp_outcome other));
  Alcotest.(check int) "consumed two spares" 2 (Tlb.entries tlb);
  Alcotest.(check int) "row 3 on spare 1" (spare0 + 1) (Tlb.remap tlb ~row:3)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_analysis_classify () =
  let org = small () in
  let spare = Org.rows org in
  let faults =
    [ F.Stuck_at (cell 0 0, true)
    ; F.Stuck_at (cell 0 5, true) (* same row *)
    ; F.Stuck_at (cell 9 2, false)
    ; F.Stuck_open (cell spare 1)
    ]
  in
  let v = Analysis.classify org faults in
  Alcotest.(check int) "regular rows" 2 v.Analysis.faulty_regular_rows;
  Alcotest.(check int) "spare rows" 1 v.Analysis.faulty_spare_rows;
  Alcotest.(check bool) "not strict-repairable" false
    (Analysis.repairable_strict org faults);
  Alcotest.(check bool) "iterated-repairable" true
    (Analysis.repairable_iterated org faults)

let prop_analysis_agrees_with_flow =
  (* the static strict predicate must match the dynamic two-pass flow
     for single-cell (non-coupling) faults *)
  QCheck.Test.make ~name:"static analysis matches two-pass flow" ~count:40
    QCheck.(int_range 0 8)
    (fun n ->
      let rng = Random.State.make [| n; 13 |] in
      let org = small () in
      let faults =
        I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
          ~mix:I.stuck_at_only ~n
      in
      (* drop faults that stick a cell at its background value for every
         background: stuck-at-0 and stuck-at-1 are both always detected
         by IFA-9, so no filtering needed *)
      let m = Model.create org in
      Model.set_faults m faults;
      let o, _ = Repair.run_reference m Alg.ifa_9 ~backgrounds:bgs8 in
      let dynamic_ok =
        match o with
        | Repair.Passed_clean | Repair.Repaired _ -> true
        | Repair.Repair_unsuccessful _ -> false
      in
      dynamic_ok = Analysis.repairable_strict org faults)

(* ------------------------------------------------------------------ *)
(* Hybrid row + word repair *)

module Hybrid = Bisram_bisr.Hybrid

let hyb () = Hybrid.create (small ()) ~word_registers:2

let test_hybrid_plan_prefers_rows_for_clusters () =
  (* rows 1-4 carry two faulty words each (ranked onto the four spare
     rows); the isolated words in rows 9 and 11 go to the registers *)
  let faulty_words =
    [ 4; 5 (* row 1 *); 8; 9 (* row 2 *); 12; 13 (* row 3 *); 16; 17
      (* row 4 *); 37 (* row 9 *); 45 (* row 11 *)
    ]
  in
  match Hybrid.plan (hyb ()) ~faulty_words with
  | Some plan ->
      Alcotest.(check (list int)) "clustered rows to spare rows" [ 1; 2; 3; 4 ]
        plan.Hybrid.row_assignments;
      Alcotest.(check (list int)) "singles to registers" [ 37; 45 ]
        plan.Hybrid.word_assignments
  | None -> Alcotest.fail "plannable pattern rejected"

let test_hybrid_beats_both_pure_schemes () =
  let org = small () in
  (* 5 scattered single-word faults in distinct rows: pure row sparing
     (4 spares) fails; hybrid (4 rows + 2 registers) succeeds *)
  let scattered =
    List.map (fun r -> F.Stuck_at (cell r 0, true)) [ 1; 3; 5; 7; 9 ]
  in
  Alcotest.(check bool) "row sparing fails" false
    (Analysis.repairable_strict org scattered);
  Alcotest.(check bool) "hybrid repairs" true
    (Hybrid.repairable (hyb ()) scattered);
  (* 4 killed rows: word registers alone could never, hybrid uses rows *)
  let row_kill =
    List.concat_map
      (fun r -> List.init (Org.cols org) (fun c -> F.Stuck_at (cell r c, true)))
      [ 2; 6; 10; 14 ]
  in
  Alcotest.(check bool) "hybrid absorbs row kills" true
    (Hybrid.repairable (hyb ()) row_kill)

let test_hybrid_rejects_overflow () =
  (* 7 scattered singles: 4 rows + 2 registers cannot hold them *)
  let scattered =
    List.map (fun r -> F.Stuck_at (cell r 0, true)) [ 1; 2; 3; 5; 7; 9; 11 ]
  in
  Alcotest.(check bool) "overflow rejected" false
    (Hybrid.repairable (hyb ()) scattered)

let test_hybrid_end_to_end_repair () =
  let m =
    with_faults
      (List.map (fun r -> F.Stuck_at (cell r 0, true)) [ 1; 3; 5; 7; 9 ])
  in
  match Hybrid.repair (hyb ()) m Alg.ifa_9 ~backgrounds:bgs8 with
  | `Repaired plan ->
      Alcotest.(check int) "4 spare rows used" 4
        (List.length plan.Hybrid.row_assignments);
      Alcotest.(check int) "1 register used" 1
        (List.length plan.Hybrid.word_assignments)
  | `Passed_clean -> Alcotest.fail "faults missed"
  | `Unsuccessful -> Alcotest.fail "hybrid should repair"

let test_hybrid_delay_still_parallel () =
  let org = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:4 () in
  let p = Pr.cda_07u3m1p in
  let hybrid_delay = Hybrid.delay_penalty p ~org ~word_registers:2 in
  let tlb_total = Tlb_timing.total (Tlb_timing.delay p ~org) in
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %.2f ns close to TLB %.2f ns"
       (hybrid_delay *. 1e9) (tlb_total *. 1e9))
    true
    (hybrid_delay < 1.6 *. tlb_total)

(* ------------------------------------------------------------------ *)
(* TLB timing *)

let test_tlb_delay_magnitude () =
  (* paper: ~1.2 ns with 4 spares at 0.7 um *)
  let org = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:4 () in
  let d = Tlb_timing.total (Tlb_timing.delay Pr.cda_07u3m1p ~org) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f ns in 0.3..2.5" (d *. 1e9))
    true
    (d > 0.3e-9 && d < 2.5e-9)

let test_tlb_delay_order_of_magnitude_below_access () =
  let org = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:4 () in
  let d = Tlb_timing.total (Tlb_timing.delay Pr.cda_07u3m1p ~org) in
  let access =
    Bisram_sram.Timing.total
      (Bisram_sram.Timing.access_time Pr.cda_07u3m1p org ~drive:2.0)
  in
  Alcotest.(check bool) "much smaller than access" true (d < 0.5 *. access)

let test_tlb_masking_vs_spares () =
  let p = Pr.cda_07u3m1p in
  let mk s = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:s () in
  Alcotest.(check bool) "4 spares maskable" true
    (Tlb_timing.maskable p ~org:(mk 4) ~drive:2.0);
  Alcotest.(check bool) "16 spares not guaranteed" false
    (Tlb_timing.maskable p ~org:(mk 16) ~drive:2.0)

let test_tlb_delay_grows_with_spares () =
  let p = Pr.cda_07u3m1p in
  let d s =
    Tlb_timing.total
      (Tlb_timing.delay p ~org:(Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:s ()))
  in
  Alcotest.(check bool) "monotone" true (d 4 < d 8 && d 8 < d 16)

(* The campaign reads the two-pass oracle off the iterated flow's first
   verify round instead of running it; that must give exactly
   [run_reference]'s verdict and TLB rows; and the iterated flow bounded
   at one verify round is the two-pass flow, so its verdict is
   [run_reference]'s too.  Besides random sets of
   every class, one generator rebuilds the shape of the pinned
   controller-vs-reference divergence: a state coupling across the
   regular/spare boundary (either side may be the aggressor) with a
   retention fault on its aggressor, plus random faults. *)
let prop_flows_match_reference =
  QCheck.Test.make
    ~name:"two-pass verdict read off the iterated run = reference"
    ~count:300
    QCheck.(triple (int_range 0 100_000) (int_range 0 8) bool)
    (fun (seed, n, boundary) ->
      let org = small () in
      let rng = Random.State.make [| 0x5A4E; seed |] in
      let random n =
        I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
          ~mix:I.default_mix ~n
      in
      let faults =
        if not boundary then random n
        else
          let col = Random.State.int rng (Org.cols org) in
          let regular = cell (Random.State.int rng (Org.rows org)) col in
          let spare =
            cell (Org.rows org + Random.State.int rng org.Org.spares)
              (Random.State.int rng (Org.cols org))
          in
          let aggressor, victim =
            if Random.State.bool rng then (regular, spare) else (spare, regular)
          in
          F.State_coupling
            { aggressor
            ; when_state = Random.State.bool rng
            ; victim
            ; reads_as = Random.State.bool rng
            }
          :: F.Data_retention (aggressor, Random.State.bool rng)
          :: random (n / 2)
      in
      let march = if seed land 1 = 0 then Alg.ifa_9 else Alg.mats_plus in
      let fresh () =
        let m = Model.create org in
        Model.set_faults m faults;
        m
      in
      let reference, tlb =
        Repair.run_reference (fresh ()) march ~backgrounds:bgs8
      in
      let f = Repair.run_flows (fresh ()) march ~backgrounds:bgs8 in
      let one =
        Repair.run_flows ~max_rounds:1 (fresh ()) march ~backgrounds:bgs8
      in
      f.Repair.reference = reference
      && f.Repair.reference_rows = Tlb.mapped_rows tlb
      && one.Repair.iterated.Repair.i_outcome = reference)

let () =
  Alcotest.run "bisr"
    [ ( "tlb",
        [ Alcotest.test_case "basic mapping" `Quick test_tlb_basic_mapping
        ; Alcotest.test_case "overflow" `Quick test_tlb_overflow
        ; Alcotest.test_case "remap spare" `Quick test_tlb_remap_spare
        ; Alcotest.test_case "clear" `Quick test_tlb_clear
        ; QCheck_alcotest.to_alcotest prop_tlb_strictly_increasing
        ; QCheck_alcotest.to_alcotest prop_tlb_distinct_spares
        ; QCheck_alcotest.to_alcotest prop_tlb_matches_list_model
        ] )
    ; ( "repair",
        [ Alcotest.test_case "clean" `Quick test_repair_clean
        ; Alcotest.test_case "two rows" `Quick test_repair_two_rows
        ; Alcotest.test_case "too many rows" `Quick test_repair_too_many_rows
        ; Alcotest.test_case "faulty spare" `Quick
            test_repair_faulty_spare_detected
        ; Alcotest.test_case "column failure" `Quick
            test_repair_column_failure_unrepairable
        ; Alcotest.test_case "controller = reference" `Slow
            test_repair_reference_agrees
        ; Alcotest.test_case "iterated repair" `Quick
            test_repair_iterated_fixes_faulty_spare
        ; QCheck_alcotest.to_alcotest prop_flows_match_reference
        ] )
    ; ( "analysis",
        [ Alcotest.test_case "classify" `Quick test_analysis_classify
        ; QCheck_alcotest.to_alcotest prop_analysis_agrees_with_flow
        ] )
    ; ( "hybrid",
        [ Alcotest.test_case "plan" `Quick test_hybrid_plan_prefers_rows_for_clusters
        ; Alcotest.test_case "beats both" `Quick test_hybrid_beats_both_pure_schemes
        ; Alcotest.test_case "overflow" `Quick test_hybrid_rejects_overflow
        ; Alcotest.test_case "end to end" `Quick test_hybrid_end_to_end_repair
        ; Alcotest.test_case "delay parallel" `Quick
            test_hybrid_delay_still_parallel
        ] )
    ; ( "timing",
        [ Alcotest.test_case "magnitude" `Quick test_tlb_delay_magnitude
        ; Alcotest.test_case "below access time" `Quick
            test_tlb_delay_order_of_magnitude_below_access
        ; Alcotest.test_case "masking vs spares" `Quick test_tlb_masking_vs_spares
        ; Alcotest.test_case "grows with spares" `Quick
            test_tlb_delay_grows_with_spares
        ] )
    ]
