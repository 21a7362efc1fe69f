(* Tests for the yield models (Section VII / Fig. 4). *)

module S = Bisram_yield.Stapper
module Rp = Bisram_yield.Repairable

let test_stapper_basics () =
  Alcotest.(check (float 1e-12)) "zero defects" 1.0
    (S.stapper_yield ~mean_defects:0.0 ~alpha:2.0);
  Alcotest.(check (float 1e-12)) "alpha 2, n 2" (1.0 /. 4.0)
    (S.stapper_yield ~mean_defects:2.0 ~alpha:2.0);
  Alcotest.(check (float 1e-12)) "da form"
    (S.stapper_yield ~mean_defects:3.0 ~alpha:2.0)
    (S.stapper_yield_da ~defect_density:0.5 ~area:6.0 ~alpha:2.0)

let test_stapper_vs_poisson () =
  (* clustering helps yield at equal mean defect count *)
  let n = 2.0 in
  Alcotest.(check bool) "clustered > poisson" true
    (S.stapper_yield ~mean_defects:n ~alpha:2.0 > S.poisson_yield ~mean_defects:n)

let test_stapper_inversion () =
  let y = 0.37 and alpha = 2.0 in
  let n = S.mean_defects_of_yield ~yield:y ~alpha in
  Alcotest.(check (float 1e-9)) "roundtrip" y (S.stapper_yield ~mean_defects:n ~alpha)

let test_occupancy_basics () =
  (* one ball occupies one bin *)
  Alcotest.(check (float 1e-12)) "1 ball <=1" 1.0
    (Rp.p_distinct_rows_at_most ~rows:10 ~spares:1 1);
  Alcotest.(check (float 1e-12)) "1 ball <=0" 0.0
    (Rp.p_distinct_rows_at_most ~rows:10 ~spares:0 1);
  (* two balls in same bin of 4: prob 1/4 *)
  Alcotest.(check (float 1e-12)) "2 balls <=1 in 4 bins" 0.25
    (Rp.p_distinct_rows_at_most ~rows:4 ~spares:1 2);
  Alcotest.(check (float 1e-12)) "spares >= rows" 1.0
    (Rp.p_distinct_rows_at_most ~rows:4 ~spares:4 100)

let test_p_repairable_edges () =
  let g = Rp.make ~regular_rows:16 ~spares:2 ~logic_fraction:0.0
      ~growth_factor:1.0 in
  Alcotest.(check (float 1e-12)) "0 faults" 1.0 (Rp.p_repairable g 0);
  (* one fault: must land in a regular row: 16/18 *)
  Alcotest.(check (float 1e-9)) "1 fault" (16.0 /. 18.0) (Rp.p_repairable g 1);
  (* with logic: scaled down *)
  let gl = Rp.make ~regular_rows:16 ~spares:2 ~logic_fraction:0.1
      ~growth_factor:1.0 in
  Alcotest.(check (float 1e-9)) "1 fault with logic" (0.9 *. 16.0 /. 18.0)
    (Rp.p_repairable gl 1)

let test_bare_yield_equals_stapper () =
  (* with no spares and no logic the module yield must equal Stapper *)
  let g = Rp.bare ~regular_rows:1024 in
  List.iter
    (fun n ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "n=%g" n)
        (S.stapper_yield ~mean_defects:n ~alpha:2.0)
        (Rp.yield g ~mean_defects:n ~alpha:2.0))
    [ 0.0; 0.5; 2.0; 10.0; 40.0 ]

let fig4_geom s =
  if s = 0 then Rp.bare ~regular_rows:1024
  else
    Rp.make ~regular_rows:1024 ~spares:s ~logic_fraction:0.02
      ~growth_factor:1.05

let test_fig4_ordering_high_defects () =
  (* at meaningful defect counts more spares = more yield *)
  List.iter
    (fun n ->
      let y s = Rp.yield (fig4_geom s) ~mean_defects:n ~alpha:2.0 in
      Alcotest.(check bool)
        (Printf.sprintf "ordering at n=%g" n)
        true
        (y 0 < y 4 && y 4 < y 8 && y 8 < y 16))
    [ 5.0; 10.0; 20.0; 40.0 ]

let test_fig4_spare_vulnerability () =
  (* at very low defect counts extra spares HURT slightly (they are
     themselves fault sites) — visible in Fig. 4 near the origin *)
  let y s = Rp.yield (fig4_geom s) ~mean_defects:1.0 ~alpha:2.0 in
  Alcotest.(check bool) "16 spares below 8 at n=1" true (y 16 < y 8)

let test_yield_monotone_in_defects () =
  let g = fig4_geom 4 in
  let prev = ref 1.1 in
  List.iter
    (fun n ->
      let y = Rp.yield g ~mean_defects:n ~alpha:2.0 in
      Alcotest.(check bool) (Printf.sprintf "monotone at %g" n) true (y < !prev);
      prev := y)
    [ 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 40.0 ]

let test_analytic_matches_monte_carlo () =
  let rng = Random.State.make [| 2024 |] in
  let g = fig4_geom 4 in
  let a = Rp.yield g ~mean_defects:5.0 ~alpha:2.0 in
  let m = Rp.yield_monte_carlo rng g ~mean_defects:5.0 ~alpha:2.0 ~trials:60_000 in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.4f ~ MC %.4f" a m)
    true
    (abs_float (a -. m) < 0.015)

let test_poisson_vs_clustered_repairable () =
  (* clustering concentrates defects into fewer dies: higher yield *)
  let g = fig4_geom 4 in
  Alcotest.(check bool) "clustered higher" true
    (Rp.yield g ~mean_defects:10.0 ~alpha:2.0
    > Rp.yield_poisson g ~mean_defects:10.0)

let prop_yield_in_unit_interval =
  QCheck.Test.make ~name:"yield in [0,1]" ~count:200
    QCheck.(pair (float_range 0.0 80.0) (int_range 0 16))
    (fun (n, s) ->
      let s = if s > 8 then 16 else if s > 4 then 8 else if s > 0 then 4 else 0 in
      let y = Rp.yield (fig4_geom s) ~mean_defects:n ~alpha:2.0 in
      y >= 0.0 && y <= 1.0)

(* --- input hardening: degenerate inputs raise instead of yielding NaN --- *)

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_stapper_rejects_degenerate () =
  expect_invalid "negative mean" (fun () ->
      S.stapper_yield ~mean_defects:(-1.0) ~alpha:2.0);
  expect_invalid "nan mean" (fun () ->
      S.stapper_yield ~mean_defects:Float.nan ~alpha:2.0);
  expect_invalid "zero alpha" (fun () ->
      S.stapper_yield ~mean_defects:1.0 ~alpha:0.0);
  expect_invalid "negative alpha" (fun () ->
      S.stapper_yield ~mean_defects:1.0 ~alpha:(-2.0));
  expect_invalid "infinite alpha" (fun () ->
      S.stapper_yield ~mean_defects:1.0 ~alpha:Float.infinity);
  expect_invalid "negative density" (fun () ->
      S.stapper_yield_da ~defect_density:(-0.1) ~area:1.0 ~alpha:2.0);
  expect_invalid "negative area" (fun () ->
      S.stapper_yield_da ~defect_density:0.1 ~area:(-1.0) ~alpha:2.0);
  expect_invalid "yield 0" (fun () ->
      S.mean_defects_of_yield ~yield:0.0 ~alpha:2.0);
  expect_invalid "yield > 1" (fun () ->
      S.mean_defects_of_yield ~yield:1.5 ~alpha:2.0);
  expect_invalid "nan yield" (fun () ->
      S.mean_defects_of_yield ~yield:Float.nan ~alpha:2.0);
  expect_invalid "negative poisson mean" (fun () ->
      S.poisson_yield ~mean_defects:(-0.5));
  expect_invalid "negative lambda" (fun () ->
      S.poisson_cell_yield ~lambda:(-1e-9))

let test_repairable_rejects_degenerate () =
  expect_invalid "nan logic_fraction" (fun () ->
      Rp.make ~regular_rows:16 ~spares:2 ~logic_fraction:Float.nan
        ~growth_factor:1.0);
  expect_invalid "logic_fraction 1" (fun () ->
      Rp.make ~regular_rows:16 ~spares:2 ~logic_fraction:1.0
        ~growth_factor:1.0);
  expect_invalid "nan growth" (fun () ->
      Rp.make ~regular_rows:16 ~spares:2 ~logic_fraction:0.0
        ~growth_factor:Float.nan);
  expect_invalid "growth < 1" (fun () ->
      Rp.make ~regular_rows:16 ~spares:2 ~logic_fraction:0.0
        ~growth_factor:0.5);
  let g = fig4_geom 4 in
  expect_invalid "negative mean" (fun () ->
      Rp.yield g ~mean_defects:(-1.0) ~alpha:2.0);
  expect_invalid "nan mean" (fun () ->
      Rp.yield g ~mean_defects:Float.nan ~alpha:2.0);
  expect_invalid "zero alpha" (fun () ->
      Rp.yield g ~mean_defects:1.0 ~alpha:0.0);
  expect_invalid "poisson negative mean" (fun () ->
      Rp.yield_poisson g ~mean_defects:(-1.0));
  expect_invalid "mc zero trials" (fun () ->
      Rp.yield_monte_carlo
        (Random.State.make [| 1 |])
        g ~mean_defects:1.0 ~alpha:2.0 ~trials:0)

(* MC simulation agrees with the analytic mixture on *random* geometries,
   not just the Fig. 4 one — the two paths share no code beyond the
   geometry record, so agreement cross-checks both *)
let prop_mc_matches_analytic =
  QCheck.Test.make ~name:"monte carlo ~ analytic on random geometries"
    ~count:15
    QCheck.(
      quad (int_range 32 512) (int_range 0 3)
        (pair (float_range 0.0 0.1) (float_range 0.0 8.0))
        (float_range 0.5 4.0))
    (fun (rows, si, (logic, mean), alpha) ->
      let spares = [| 0; 2; 4; 8 |].(si) in
      let g =
        Rp.make ~regular_rows:rows ~spares ~logic_fraction:logic
          ~growth_factor:1.05
      in
      let rng =
        Random.State.make
          [| 73; rows; spares; int_of_float (mean *. 1000.0)
           ; int_of_float (alpha *. 1000.0)
          |]
      in
      let a = Rp.yield g ~mean_defects:mean ~alpha in
      let m =
        Rp.yield_monte_carlo rng g ~mean_defects:mean ~alpha ~trials:20_000
      in
      abs_float (a -. m) < 0.03)

let prop_occupancy_monotone_in_spares =
  QCheck.Test.make ~name:"occupancy CDF monotone in spares" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 2 64))
    (fun (n, rows) ->
      let p s = Rp.p_distinct_rows_at_most ~rows ~spares:s n in
      p 0 <= p 1 +. 1e-12 && p 1 <= p 4 +. 1e-12 && p 4 <= p 16 +. 1e-12)

(* The incremental mixture behind [yield] and [yield_poisson] must be
   bit-identical to the per-count form it replaced: Σ pmf(n) ·
   [p_repairable g n], each term rebuilding the distinct-rows DP from
   zero, summed until the remaining mass is below 1e-12.  Geometries
   cover [spares = 0] and [spares >= rows]; means cover 0 and clustered
   heavy tails (alpha down to 0.3), small enough that this quadratic
   reference stays fast. *)
module D = Bisram_faults.Defect

let reference_mixture g ~mean ~pmf =
  if mean <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 and mass = ref 0.0 and n = ref 0 in
    while !mass < 1.0 -. 1e-12 && !n < 100_000 do
      let p = pmf !n in
      mass := !mass +. p;
      acc := !acc +. (p *. Rp.p_repairable g !n);
      incr n
    done;
    !acc
  end

let prop_mixture_identity =
  QCheck.Test.make ~name:"incremental mixture = per-count sum (bits)"
    ~count:150
    QCheck.(
      quad (int_range 1 48)
        (oneof [ int_range 0 0; int_range 0 24; int_range 48 60 ])
        (pair (float_range 0.0 0.3) (float_range 1.0 1.5))
        (pair (oneof [ float_range 0.0 0.0; float_range 0.0 8.0 ])
           (float_range 0.3 4.0)))
    (fun (rows, spares, (logic, growth), (mean_defects, alpha)) ->
      let g =
        Rp.make ~regular_rows:rows ~spares ~logic_fraction:logic
          ~growth_factor:growth
      in
      let mean = mean_defects *. growth in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      same
        (Rp.yield g ~mean_defects ~alpha)
        (reference_mixture g ~mean ~pmf:(fun n ->
             D.negative_binomial_pmf ~mean ~alpha n))
      && same
           (Rp.yield_poisson g ~mean_defects)
           (reference_mixture g ~mean ~pmf:(fun n -> D.poisson_pmf ~mean n)))

let () =
  Alcotest.run "yield"
    [ ( "stapper",
        [ Alcotest.test_case "basics" `Quick test_stapper_basics
        ; Alcotest.test_case "vs poisson" `Quick test_stapper_vs_poisson
        ; Alcotest.test_case "inversion" `Quick test_stapper_inversion
        ] )
    ; ( "repairable",
        [ Alcotest.test_case "occupancy basics" `Quick test_occupancy_basics
        ; Alcotest.test_case "p_repairable edges" `Quick test_p_repairable_edges
        ; Alcotest.test_case "bare = stapper" `Quick
            test_bare_yield_equals_stapper
        ; Alcotest.test_case "fig4 ordering" `Quick
            test_fig4_ordering_high_defects
        ; Alcotest.test_case "spare vulnerability" `Quick
            test_fig4_spare_vulnerability
        ; Alcotest.test_case "monotone in defects" `Quick
            test_yield_monotone_in_defects
        ; Alcotest.test_case "matches monte carlo" `Slow
            test_analytic_matches_monte_carlo
        ; Alcotest.test_case "clustering helps" `Quick
            test_poisson_vs_clustered_repairable
        ; QCheck_alcotest.to_alcotest prop_yield_in_unit_interval
        ; QCheck_alcotest.to_alcotest prop_occupancy_monotone_in_spares
        ; QCheck_alcotest.to_alcotest prop_mc_matches_analytic
        ; QCheck_alcotest.to_alcotest prop_mixture_identity
        ] )
    ; ( "hardening",
        [ Alcotest.test_case "stapper rejects degenerate" `Quick
            test_stapper_rejects_degenerate
        ; Alcotest.test_case "repairable rejects degenerate" `Quick
            test_repairable_rejects_degenerate
        ] )
    ]
