(* Tests for the lane-sliced batch engine and for pool-item widths:
   the differential property pinning [Lanes] to the scalar [Model]
   trial-for-trial (the engine perfbench's re-drive runs), report byte
   identity of [Campaign.run] across pool-item widths and job counts,
   failing-trial replay, and the checkpoint/resume boundary inside and
   at a pool item. *)

module C = Bisram_campaign.Campaign
module Sweep = Bisram_campaign.Sweep
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Lanes = Bisram_sram.Lanes
module Lane_engine = Bisram_bist.Lane_engine
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen
module I = Bisram_faults.Injection
module Pool = Bisram_parallel.Pool

(* ------------------------------------------------------------------ *)
(* the correctness keystone: per lane, [Lanes] equals the scalar
   [Model] under arbitrary per-lane fault sets and an arbitrary
   broadcast stimulus.  Every read compares every lane's every data
   bit against its own scalar model. *)

type op = Op_write of int * int | Op_read of int | Op_wait

let prop_lanes_equal_scalar_models =
  QCheck.Test.make
    ~name:"every lane of Lanes equals its own scalar Model (differential)"
    ~count:150
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 1 10)
        (list_of_size (Gen.int_range 1 60) (triple (int_range 0 20) small_nat small_nat)))
    (fun (seed, lanes, raw_ops) ->
      let org = Org.make ~words:16 ~bpw:4 ~bpc:2 ~spares:4 () in
      let rng = Random.State.make [| 0x1a9e5; seed |] in
      (* per-lane random fault sets across every class of the default
         mix, sizes 0..4 so clean lanes and heavily faulted lanes mix
         within one batch *)
      let fault_sets =
        List.init lanes (fun _ ->
            I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
              ~mix:I.default_mix
              ~n:(Random.State.int rng 5))
      in
      let batch = Lanes.create org ~lanes in
      List.iteri (fun l f -> Lanes.arm batch ~lane:l f) fault_sets;
      Lanes.clear batch;
      let models =
        List.map
          (fun f ->
            let m = Model.create org in
            Model.set_faults m f;
            m)
          fault_sets
      in
      (* decode the raw generator triples into a stimulus: tag 0-8 a
         write, 9-18 a read, 19-20 a retention wait *)
      let ops =
        List.map
          (fun (tag, a, d) ->
            let addr = a mod org.Org.words in
            if tag < 9 then Op_write (addr, d mod 16)
            else if tag < 19 then Op_read addr
            else Op_wait)
          raw_ops
      in
      List.for_all
        (fun o ->
          match o with
          | Op_write (a, d) ->
              let w = Word.of_int ~width:4 d in
              Lanes.write_word batch a w;
              List.iter (fun m -> Model.write_word m a w) models;
              true
          | Op_wait ->
              Lanes.retention_wait batch;
              List.iter Model.retention_wait models;
              true
          | Op_read a ->
              let bits = Lanes.read_bits batch a in
              List.for_all
                (fun (l, m) ->
                  let w = Model.read_word m a in
                  let ok = ref true in
                  Array.iteri
                    (fun b mask ->
                      let lane_bit = (mask lsr l) land 1 = 1 in
                      if lane_bit <> Word.get w b then ok := false)
                    bits;
                  !ok)
                (List.mapi (fun l m -> (l, m)) models))
        ops)

(* the lane march engine agrees with the scalar engine's pass/fail
   verdict per lane, for random per-lane fault sets *)
let prop_lane_engine_verdicts =
  QCheck.Test.make
    ~name:"lane march fail mask = per-lane scalar Engine.passes" ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, lanes) ->
      let org = Org.make ~words:16 ~bpw:4 ~bpc:2 ~spares:4 () in
      let rng = Random.State.make [| 0xe9e1e; seed |] in
      let fault_sets =
        List.init lanes (fun _ ->
            I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
              ~mix:I.default_mix
              ~n:(Random.State.int rng 4))
      in
      let bgs = Datagen.required_backgrounds ~bpw:4 in
      let batch = Lanes.create org ~lanes in
      List.iteri (fun l f -> Lanes.arm batch ~lane:l f) fault_sets;
      Lanes.clear batch;
      let fail = Lane_engine.run_pass batch Alg.ifa_9 ~backgrounds:bgs in
      (* saturation stops the lane pass early, so only the all-failed
         case is comparable when the mask saturates *)
      if fail = Lanes.all_mask batch then
        List.for_all
          (fun f ->
            let m = Model.create org in
            Model.set_faults m f;
            not (Bisram_bist.Engine.passes m Alg.ifa_9 ~backgrounds:bgs))
          fault_sets
      else
        List.for_all
          (fun (l, f) ->
            let m = Model.create org in
            Model.set_faults m f;
            let scalar_pass =
              Bisram_bist.Engine.passes m Alg.ifa_9 ~backgrounds:bgs
            in
            scalar_pass = ((fail lsr l) land 1 = 0))
          (List.mapi (fun l f -> (l, f)) fault_sets))

(* ------------------------------------------------------------------ *)
(* report byte identity: the pool-item width is purely a scheduling
   knob.  70 trials so lanes=62 forms one full item plus a ragged
   tail and lanes=7 forms ten full items. *)

let check_identity name cfg =
  let scalar = C.json_string (C.run ~jobs:1 ~lanes:1 cfg) in
  List.iter
    (fun lanes ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s lanes=%d jobs=%d" name lanes jobs)
            scalar
            (C.json_string (C.run ~jobs ~lanes cfg)))
        [ 1; 4 ])
    [ 1; 7; 62 ]

let test_report_identity_fault_free () =
  check_identity "fault-free"
    (C.make_config ~mode:(C.Uniform 0) ~trials:70 ~seed:1999 ())

let test_report_identity_stuck_at () =
  check_identity "stuck-at"
    (C.make_config ~mix:I.stuck_at_only ~mode:(C.Uniform 2) ~trials:70
       ~seed:7 ())

let test_report_identity_poisson_default_mix () =
  check_identity "poisson default mix"
    (C.make_config ~mode:(C.Poisson 0.4) ~trials:70 ~seed:3 ())

let test_lanes_out_of_range_rejected () =
  let cfg = C.make_config ~trials:3 ~seed:1 () in
  List.iter
    (fun lanes ->
      Alcotest.check_raises
        (Printf.sprintf "lanes=%d rejected" lanes)
        (Invalid_argument
           (Printf.sprintf "Campaign.run: lanes must be in 1..%d" C.max_lanes))
        (fun () -> ignore (C.run ~lanes cfg)))
    [ 0; -1; C.max_lanes + 1 ]

(* ------------------------------------------------------------------ *)
(* failing-trial replay: a failure found at width 62 carries the same
   trial seed as at width 1, and replaying that seed alone reproduces
   the anomaly *)

let test_failing_lane_replay () =
  let cfg =
    C.make_config ~march:Alg.mats_plus ~mix:I.retention_only ~mode:(C.Uniform 3)
      ~trials:70 ~seed:5 ()
  in
  let batched = C.run ~jobs:1 ~lanes:62 cfg in
  let scalar = C.run ~jobs:1 ~lanes:1 cfg in
  Alcotest.(check bool) "escapes found" true (batched.C.escapes <> []);
  Alcotest.(check string) "batched report = scalar report"
    (C.json_string scalar) (C.json_string batched);
  let f = List.hd batched.C.escapes in
  let t = C.replay cfg ~seed:f.C.f_seed in
  Alcotest.(check bool) "replayed lane reproduces the escape" true
    (List.exists (function C.Escape _ -> true | _ -> false)
       t.C.t_anomalies);
  Alcotest.(check (list string)) "replay draws the reported fault set"
    (List.map (Format.asprintf "%a" Bisram_faults.Fault.pp) f.C.f_faults)
    (List.map (Format.asprintf "%a" Bisram_faults.Fault.pp) t.C.t_faults)

(* ------------------------------------------------------------------ *)
(* checkpoint/resume at width 62: a checkpoint cut inside and at a
   pool-item boundary resumes to a byte-identical report *)

let test_batched_checkpoint_resume () =
  let cfg = C.make_config ~mode:(C.Uniform 2) ~trials:70 ~seed:17 () in
  let full = C.json_string (C.run ~jobs:1 ~lanes:1 cfg) in
  let path = Filename.temp_file "bisram-lanes-ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun k ->
          (* run the first k trials batched, snapshotting; resume the
             full campaign batched from the snapshot *)
          ignore
            (C.run ~jobs:1 ~lanes:62
               ~checkpoint:(C.checkpoint ~path ~every:1 ())
               { cfg with C.trials = k });
          let r =
            C.run ~jobs:1 ~lanes:62
              ~checkpoint:(C.checkpoint ~path ~every:1 ~resume:true ())
              cfg
          in
          Alcotest.(check int)
            (Printf.sprintf "k=%d trials resumed" k)
            k r.C.resumed_trials;
          Alcotest.(check string)
            (Printf.sprintf "k=%d byte-identical" k)
            full (C.json_string r))
        [ 30; 62; 65 ])

(* ------------------------------------------------------------------ *)
(* unit decomposition: full items then single-trial tail units, so
   per-trial chaos/checkpoint semantics survive for short campaigns *)

let test_batch_ranges () =
  Alcotest.(check (list (pair int int)))
    "70 trials at width 62" [ (0, 62); (62, 1); (63, 1); (64, 1); (65, 1); (66, 1); (67, 1); (68, 1); (69, 1) ]
    (Array.to_list (Pool.batch_ranges ~items:70 ~width:62));
  Alcotest.(check (list (pair int int)))
    "width 1 stays scalar" [ (0, 1); (1, 1); (2, 1) ]
    (Array.to_list (Pool.batch_ranges ~items:3 ~width:1));
  Alcotest.(check (list (pair int int)))
    "exact multiple has no tail" [ (0, 4); (4, 4) ]
    (Array.to_list (Pool.batch_ranges ~items:8 ~width:4));
  Alcotest.(check (list (pair int int)))
    "fewer items than width decomposes to singles"
    [ (0, 1); (1, 1) ]
    (Array.to_list (Pool.batch_ranges ~items:2 ~width:62));
  Alcotest.(check (list (pair int int))) "zero items" []
    (Array.to_list (Pool.batch_ranges ~items:0 ~width:8))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lanes"
    [ ( "differential"
      , [ QCheck_alcotest.to_alcotest prop_lanes_equal_scalar_models
        ; QCheck_alcotest.to_alcotest prop_lane_engine_verdicts
        ] )
    ; ( "report-identity"
      , [ Alcotest.test_case "fault-free" `Quick test_report_identity_fault_free
        ; Alcotest.test_case "stuck-at" `Quick test_report_identity_stuck_at
        ; Alcotest.test_case "poisson default mix" `Slow
            test_report_identity_poisson_default_mix
        ; Alcotest.test_case "lanes out of range" `Quick
            test_lanes_out_of_range_rejected
        ] )
    ; ( "replay"
      , [ Alcotest.test_case "failing lane replays scalar" `Quick
            test_failing_lane_replay
        ] )
    ; ( "checkpoint"
      , [ Alcotest.test_case "batched resume boundaries" `Quick
            test_batched_checkpoint_resume
        ] )
    ; ( "scheduler"
      , [ Alcotest.test_case "batch_ranges decomposition" `Quick
            test_batch_ranges
        ] )
    ]
