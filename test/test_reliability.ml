(* Tests for the reliability model (Section VIII / Fig. 5). *)

module Rel = Bisram_rel.Reliability
module Org = Bisram_sram.Org

(* Fig. 5 configuration: 1024 rows, bpc = bpw = 4 *)
let org s = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:s ()
let lambda = 1e-8
let cfg s = Rel.of_org (org s) ~lambda

let test_boundary_conditions () =
  Alcotest.(check (float 1e-12)) "R(0)=1" 1.0 (Rel.reliability (cfg 4) 0.0);
  Alcotest.(check bool) "R(huge)~0" true
    (Rel.reliability (cfg 4) 1e9 < 1e-6)

let test_monotone_decreasing () =
  let c = cfg 4 in
  let prev = ref 1.0 in
  List.iter
    (fun t ->
      let r = Rel.reliability c t in
      Alcotest.(check bool) (Printf.sprintf "R decreasing at %g" t) true
        (r <= !prev +. 1e-12);
      Alcotest.(check bool) "in unit interval" true (r >= 0.0 && r <= 1.0);
      prev := r)
    [ 1e3; 1e4; 5e4; 1e5; 2e5; 1e6 ]

let test_early_life_fewer_spares_better () =
  (* before the crossover, more spares means lower reliability — the
     spares are themselves failure sites (paper's Fig. 5 observation) *)
  let t = 10_000.0 in
  let r s = Rel.reliability (cfg s) t in
  Alcotest.(check bool) "4 > 8 early" true (r 4 > r 8);
  Alcotest.(check bool) "8 > 16 early" true (r 8 > r 16)

let test_late_life_more_spares_better () =
  let t = 200_000.0 in
  let r s = Rel.reliability (cfg s) t in
  Alcotest.(check bool) "8 > 4 late" true (r 8 > r 4)

let test_crossover_location () =
  (* paper: reliability with 4 spares exceeds 8 spares until the device
     is ~8 years old (~70,000 h) *)
  match Rel.crossover (cfg 4) (cfg 8) ~t0:1000.0 ~t1:1e6 ~steps:4000 with
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "crossover at %.0f h" t)
        true
        (t > 40_000.0 && t < 110_000.0)
  | None -> Alcotest.fail "no 4-vs-8 crossover found"

let test_spares_extend_mttf () =
  let m0 = Rel.mttf (cfg 0) and m4 = Rel.mttf (cfg 4) in
  Alcotest.(check bool)
    (Printf.sprintf "mttf %.3g -> %.3g" m0 m4)
    true (m4 > 3.0 *. m0)

let test_mttf_scales_inversely_with_lambda () =
  let m1 = Rel.mttf (Rel.of_org (org 4) ~lambda:1e-8) in
  let m2 = Rel.mttf (Rel.of_org (org 4) ~lambda:2e-8) in
  Alcotest.(check bool) "halved lambda doubles mttf" true
    (abs_float ((m1 /. m2) -. 2.0) < 1e-9)

let rel_err a b = abs_float (a -. b) /. abs_float b

(* Without spares the module dies with its first faulty word, so the
   MTTF is exactly 1/(lambda*bpw*W) at any failure rate, including
   rates far outside the range a fixed integration horizon covers. *)
let test_mttf_exact_without_spares () =
  let small = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:0 () in
  List.iter
    (fun lambda ->
      let m = Rel.mttf (Rel.of_org small ~lambda) in
      let exact = 1.0 /. (lambda *. 8.0 *. 64.0) in
      Alcotest.(check bool)
        (Printf.sprintf "lambda %g: mttf %.6g vs %.6g" lambda m exact)
        true
        (rel_err m exact < 1e-12))
    [ 1e-18; 1e-9; 1.0 ]

let test_failure_pdf_nonnegative () =
  let c = cfg 4 in
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "pdf >= 0 at %g" t) true
        (Rel.failure_pdf c t >= -1e-9))
    [ 1e3; 1e4; 1e5; 5e5 ]

let test_failure_pdf_matches_difference () =
  let c = cfg 4 in
  List.iter
    (fun t ->
      let h = t *. 1e-4 in
      let diff =
        -.(Rel.reliability c (t +. h) -. Rel.reliability c (t -. h))
        /. (2.0 *. h)
      in
      let pdf = Rel.failure_pdf c t in
      Alcotest.(check bool)
        (Printf.sprintf "pdf %.10g vs difference %.10g at %g" pdf diff t)
        true
        (rel_err pdf diff < 1e-4))
    [ 1e3; 1e4; 1e5; 5e5 ]

(* Oracle: composite Simpson over the practical support of R, found by
   doubling from 1000 h.  Accurate while the MTTF lies well inside
   [1000 h, 1e15 h]. *)
let simpson_mttf c =
  let r = Rel.reliability c in
  let rec horizon t = if r t < 1e-10 || t > 1e15 then t else horizon (t *. 2.0) in
  let tmax = horizon 1000.0 in
  let n = 20_000 in
  let h = tmax /. float_of_int n in
  let sum = ref (r 0.0 +. r tmax) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4.0 else 2.0 in
    sum := !sum +. (w *. r (h *. float_of_int i))
  done;
  !sum *. h /. 3.0

let config ~words ~spare_words ~lambda =
  { Rel.words; bpw = 4; spare_words; lambda }

let test_mttf_matches_oracle () =
  List.iter
    (fun (words, spare_words) ->
      List.iter
        (fun lambda ->
          let c = config ~words ~spare_words ~lambda in
          let m = Rel.mttf c and o = simpson_mttf c in
          Alcotest.(check bool)
            (Printf.sprintf "W=%d S=%d lambda=%g: %.12g vs oracle %.12g"
               words spare_words lambda m o)
            true
            (rel_err m o < 1e-9))
        [ 1e-9; 1e-8; 1e-6 ])
    [ (64, 0); (64, 4); (256, 8); (1024, 16); (4096, 32) ]

let test_lambda_rejected () =
  let expect name l =
    Alcotest.(check bool) name true
      (try
         ignore (Rel.of_org (org 4) ~lambda:l);
         false
       with Invalid_argument _ -> true)
  in
  expect "zero lambda" 0.0;
  expect "negative lambda" (-1e-9);
  expect "nan lambda" Float.nan;
  expect "infinite lambda" Float.infinity

(* MTTF is strictly decreasing in the per-bit failure rate: scaling
   lambda up by any factor >= 1.5 must strictly shorten the expected
   life. *)
let prop_mttf_decreasing_in_lambda =
  QCheck.Test.make ~name:"mttf strictly decreasing in lambda" ~count:25
    QCheck.(
      triple
        (float_range (-9.0) (-6.0))
        (float_range 1.5 10.0) (int_range 0 2))
    (fun (log_l, factor, si) ->
      let s = List.nth [ 0; 4; 8 ] si in
      let small = Org.make ~words:64 ~bpw:4 ~bpc:4 ~spares:s () in
      let l = 10.0 ** log_l in
      let m1 = Rel.mttf (Rel.of_org small ~lambda:l) in
      let m2 = Rel.mttf (Rel.of_org small ~lambda:(l *. factor)) in
      m2 < m1)

let prop_reliability_unit_interval =
  QCheck.Test.make ~name:"R(t) in [0,1]" ~count:200
    QCheck.(pair (float_range 0.0 1e6) (int_range 0 2))
    (fun (t, si) ->
      let s = List.nth [ 0; 4; 8 ] si in
      let r = Rel.reliability (cfg s) t in
      r >= 0.0 && r <= 1.0)

let prop_mttf_matches_oracle =
  QCheck.Test.make ~name:"closed-form mttf matches Simpson oracle" ~count:30
    QCheck.(
      triple (int_range 1 4096) (int_range 0 64) (float_range (-10.0) (-6.0)))
    (fun (words, spare_words, log_l) ->
      let c = config ~words ~spare_words ~lambda:(10.0 ** log_l) in
      rel_err (Rel.mttf c) (simpson_mttf c) < 1e-9)

(* [crossover] returns exactly the first grid point where a falls
   below b, as a naive scan with one [reliability] call per point; a
   config never falls strictly below itself. *)
let crossover_is_naive a b ~t0 ~t1 ~steps =
  let h = (t1 -. t0) /. float_of_int (steps - 1) in
  let naive =
    List.find_opt
      (fun t -> Rel.reliability a t < Rel.reliability b t)
      (List.init steps (fun i -> t0 +. (h *. float_of_int i)))
  in
  Rel.crossover a b ~t0 ~t1 ~steps = naive
  && Rel.crossover a a ~t0 ~t1 ~steps = None

(* Configs that share words, bpw and lambda take the one-pass scan,
   any other pair two separate curves; both must match the naive scan,
   also where a spare count reaches the word count and where the grid
   runs so far past the MTTF that q rounds to 1, from its start (t0
   half of t1) or after it. *)
let prop_crossover_is_first_grid_point =
  QCheck.Test.make ~name:"crossover is the first grid point with R_a < R_b"
    ~count:300
    QCheck.(
      quad
        (triple (int_range 1 1024) bool bool)
        (pair (int_range 0 40) (int_range 0 40))
        (pair (float_range (-9.0) (-6.0)) (oneofl [ 20.0; 1e3; 1e6 ]))
        (pair (int_range 2 400) (int_range 0 4)))
    (fun ((words, small, late), (sa, sb), (log_l, horizon), (steps, variant)) ->
      let words = if small then 1 + (words mod 24) else words in
      let lambda = 10.0 ** log_l in
      let a = config ~words ~spare_words:sa ~lambda in
      let b =
        match variant with
        | 0 -> config ~words:(words + 1 + sb) ~spare_words:sb ~lambda
        | 1 -> config ~words ~spare_words:sb ~lambda:(lambda *. 1.5)
        | 2 -> { (config ~words ~spare_words:sb ~lambda) with Rel.bpw = 8 }
        | _ -> config ~words ~spare_words:sb ~lambda
      in
      let t1 = horizon *. Float.max (Rel.mttf a) (Rel.mttf b) in
      let t0 = if late then 0.5 *. t1 else 1.0 in
      crossover_is_naive a b ~t0 ~t1 ~steps)

(* The regimes the property draws, pinned: spares past the word count
   on either side, and grids with q = 1 (R = 0 for both) in their tail
   or throughout. *)
let test_crossover_edges () =
  List.iter
    (fun (words, sa, sb, horizon) ->
      let a = config ~words ~spare_words:sa ~lambda:1e-6
      and b = config ~words ~spare_words:sb ~lambda:1e-6 in
      let t1 = horizon *. Float.max (Rel.mttf a) (Rel.mttf b) in
      List.iter
        (fun t0 ->
          Alcotest.(check bool)
            (Printf.sprintf "W=%d S=%d vs %d, t %g..%g" words sa sb t0 t1)
            true
            (crossover_is_naive a b ~t0 ~t1 ~steps:200
            && crossover_is_naive b a ~t0 ~t1 ~steps:200))
        [ 1.0; 0.5 *. t1 ];
      if horizon >= 1e6 then
        Alcotest.(check (float 0.0)) "R(t1) = 0 once q = 1" 0.0
          (Rel.reliability a t1))
    [ (4, 0, 6, 20.0); (4, 4, 9, 1e6); (16, 2, 16, 1e6); (1, 0, 1, 1e6)
    ; (64, 0, 8, 1e6)
    ]

let () =
  Alcotest.run "reliability"
    [ ( "reliability",
        [ Alcotest.test_case "boundary" `Quick test_boundary_conditions
        ; Alcotest.test_case "monotone" `Quick test_monotone_decreasing
        ; Alcotest.test_case "early life" `Quick
            test_early_life_fewer_spares_better
        ; Alcotest.test_case "late life" `Quick
            test_late_life_more_spares_better
        ; Alcotest.test_case "crossover ~70kh" `Quick test_crossover_location
        ; Alcotest.test_case "mttf gain" `Quick test_spares_extend_mttf
        ; Alcotest.test_case "mttf scaling" `Quick
            test_mttf_scales_inversely_with_lambda
        ; Alcotest.test_case "mttf exact without spares" `Quick
            test_mttf_exact_without_spares
        ; Alcotest.test_case "closed-form vs numeric integral" `Quick
            test_mttf_matches_oracle
        ; Alcotest.test_case "pdf nonnegative" `Quick test_failure_pdf_nonnegative
        ; Alcotest.test_case "pdf matches central difference" `Quick
            test_failure_pdf_matches_difference
        ; Alcotest.test_case "degenerate lambda rejected" `Quick
            test_lambda_rejected
        ; QCheck_alcotest.to_alcotest prop_reliability_unit_interval
        ; QCheck_alcotest.to_alcotest prop_mttf_decreasing_in_lambda
        ; QCheck_alcotest.to_alcotest prop_mttf_matches_oracle
        ; Alcotest.test_case "crossover edges" `Quick test_crossover_edges
        ; QCheck_alcotest.to_alcotest prop_crossover_is_first_grid_point
        ] )
    ]
