(* Tests for fault models, defect statistics and injection. *)

module F = Bisram_faults.Fault
module D = Bisram_faults.Defect
module I = Bisram_faults.Injection

let rng () = Random.State.make [| 42; 1999 |]

let cell r c = { F.row = r; F.col = c }

let test_fault_victims () =
  let v = cell 2 3 and a = cell 2 4 in
  Alcotest.(check bool) "saf victim" true
    (F.equal_cell v (F.victim (F.Stuck_at (v, true))));
  Alcotest.(check bool) "coupling victim" true
    (F.equal_cell v (F.victim (F.Coupling_inversion { aggressor = a; victim = v })));
  Alcotest.(check int) "coupling mentions both" 2
    (List.length (F.cells (F.Coupling_inversion { aggressor = a; victim = v })));
  Alcotest.(check int) "saf mentions one" 1
    (List.length (F.cells (F.Stuck_open v)))

let test_fault_class_names () =
  let fs =
    [ F.Stuck_at (cell 0 0, true)
    ; F.Transition (cell 0 0, true)
    ; F.Stuck_open (cell 0 0)
    ; F.Coupling_inversion { aggressor = cell 0 0; victim = cell 0 1 }
    ; F.Coupling_idempotent
        { aggressor = cell 0 0; rising = true; victim = cell 0 1; forces = true }
    ; F.State_coupling
        { aggressor = cell 0 0; when_state = true; victim = cell 0 1; reads_as = true }
    ; F.Data_retention (cell 0 0, false)
    ]
  in
  Alcotest.(check (list string))
    "classes cover all names" F.all_class_names
    (List.map F.class_name fs)

let test_poisson_mean () =
  let r = rng () in
  let n = 20000 in
  let mean = 7.5 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + D.poisson r mean
  done;
  let m = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean %.3f ~ %.1f" m mean)
    true
    (abs_float (m -. mean) < 0.15)

let test_poisson_large_lambda () =
  let r = rng () in
  let n = 5000 in
  let mean = 120.0 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + D.poisson r mean
  done;
  let m = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "large-lambda mean" true (abs_float (m -. mean) < 2.0)

let test_negative_binomial_mean_and_var () =
  let r = rng () in
  let n = 30000 in
  let mean = 5.0 and alpha = 2.0 in
  let xs = Array.init n (fun _ -> float_of_int (D.negative_binomial r ~mean ~alpha)) in
  let m = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs /. float_of_int n
  in
  (* NB variance = mean + mean^2/alpha = 5 + 12.5 = 17.5 *)
  Alcotest.(check bool) (Printf.sprintf "nb mean %.2f" m) true (abs_float (m -. mean) < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "nb var %.2f (clustered > poisson)" var)
    true
    (var > 12.0 && var < 24.0)

let test_pmf_normalization () =
  let total_poisson = ref 0.0 and total_nb = ref 0.0 in
  for k = 0 to 200 do
    total_poisson := !total_poisson +. D.poisson_pmf ~mean:6.0 k;
    total_nb := !total_nb +. D.negative_binomial_pmf ~mean:6.0 ~alpha:2.0 k
  done;
  Alcotest.(check (float 1e-6)) "poisson pmf sums to 1" 1.0 !total_poisson;
  Alcotest.(check (float 1e-6)) "nb pmf sums to 1" 1.0 !total_nb

let test_nb_pmf_matches_sampler () =
  (* P(0) under clustering = Stapper yield formula (1+mean/alpha)^-alpha *)
  let p0 = D.negative_binomial_pmf ~mean:4.0 ~alpha:2.0 0 in
  Alcotest.(check (float 1e-9)) "nb p0 = stapper" ((1.0 +. 2.0) ** -2.0) p0

let test_injection_bounds () =
  let r = rng () in
  let faults = I.inject r ~rows:16 ~cols:8 ~mix:I.default_mix ~n:500 in
  Alcotest.(check int) "count" 500 (List.length faults);
  List.iter
    (fun f ->
      List.iter
        (fun (c : F.cell) ->
          Alcotest.(check bool) "row in range" true (c.F.row >= 0 && c.F.row < 16);
          Alcotest.(check bool) "col in range" true (c.F.col >= 0 && c.F.col < 8))
        (F.cells f))
    faults

let test_injection_stuck_at_only () =
  let r = rng () in
  let faults = I.inject r ~rows:8 ~cols:8 ~mix:I.stuck_at_only ~n:200 in
  List.iter
    (fun f ->
      match f with
      | F.Stuck_at _ -> ()
      | other ->
          Alcotest.failf "expected only SAF, got %s" (F.class_name other))
    faults

let test_injection_mix_hits_all_classes () =
  let r = rng () in
  let faults = I.inject r ~rows:32 ~cols:32 ~mix:I.default_mix ~n:2000 in
  let seen = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace seen (F.class_name f) ()) faults;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " appears") true (Hashtbl.mem seen name))
    F.all_class_names

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_mix_rejects_negative_weight () =
  let bad = { I.default_mix with I.transition = -0.1 } in
  expect_invalid "validate_mix" (fun () -> I.validate_mix bad);
  expect_invalid "inject" (fun () ->
      I.inject (rng ()) ~rows:8 ~cols:8 ~mix:bad ~n:1);
  expect_invalid "random_fault" (fun () ->
      I.random_fault (rng ()) ~rows:8 ~cols:8 ~mix:bad)

let test_mix_rejects_all_zero () =
  let zero =
    { I.stuck_at = 0.0
    ; transition = 0.0
    ; stuck_open = 0.0
    ; coupling_inversion = 0.0
    ; coupling_idempotent = 0.0
    ; state_coupling = 0.0
    ; data_retention = 0.0
    }
  in
  expect_invalid "validate_mix" (fun () -> I.validate_mix zero);
  (* validated even when no fault would actually be drawn *)
  expect_invalid "inject n=0" (fun () ->
      I.inject (rng ()) ~rows:8 ~cols:8 ~mix:zero ~n:0);
  expect_invalid "inject_poisson" (fun () ->
      I.inject_poisson (rng ()) ~rows:8 ~cols:8 ~mix:zero ~mean:2.0)

let test_mix_valid_passes () =
  I.validate_mix I.default_mix;
  I.validate_mix I.stuck_at_only;
  Alcotest.(check pass) "valid mixes accepted" () ()

let test_faulty_rows () =
  let fs =
    [ F.Stuck_at (cell 5 0, true)
    ; F.Stuck_at (cell 2 3, false)
    ; F.Stuck_open (cell 5 7)
    ]
  in
  Alcotest.(check (list int)) "dedup + sort" [ 2; 5 ] (I.faulty_rows fs)

let prop_coupling_aggressor_adjacent =
  QCheck.Test.make ~name:"coupling aggressors physically adjacent" ~count:500
    QCheck.(pair (int_range 2 40) (int_range 2 40))
    (fun (rows, cols) ->
      let r = rng () in
      let fs = I.inject r ~rows ~cols ~mix:I.default_mix ~n:50 in
      List.for_all
        (fun f ->
          match f with
          | F.Coupling_inversion { aggressor = a; victim = v }
          | F.Coupling_idempotent { aggressor = a; victim = v; _ }
          | F.State_coupling { aggressor = a; victim = v; _ } ->
              abs (a.F.row - v.F.row) + abs (a.F.col - v.F.col) = 1
          | F.Stuck_at _ | F.Transition _ | F.Stuck_open _
          | F.Data_retention _ ->
              true)
        fs)

let prop_gamma_positive =
  QCheck.Test.make ~name:"gamma sampler positive" ~count:300
    QCheck.(pair (float_range 0.2 10.0) (float_range 0.1 10.0))
    (fun (shape, scale) ->
      let r = rng () in
      D.gamma r ~shape ~scale > 0.0)

(* ------------------------------------------------------------------ *)
(* Spatial defects *)

module Sp = Bisram_faults.Spatial

let test_radius_bounds_and_skew () =
  let r = rng () in
  let n = 5000 in
  let small = ref 0 in
  for _ = 1 to n do
    let rad = Sp.sample_radius r ~r_min:1 ~r_max:100 in
    Alcotest.(check bool) "in range" true (rad >= 1 && rad <= 100);
    if rad <= 2 then incr small
  done;
  (* 1/r^3: most defects are near the minimum size *)
  Alcotest.(check bool)
    (Printf.sprintf "small-defect fraction %.2f" (float_of_int !small /. float_of_int n))
    true
    (float_of_int !small /. float_of_int n > 0.6)

let test_cells_hit_geometry () =
  (* 24x20 cells; defect well inside cell (1,2) *)
  let d = { Sp.x = (2 * 24) + 12; y = 20 + 10; radius = 3 } in
  Alcotest.(check (list (pair int int))) "single cell" [ (1, 2) ]
    (Sp.cells_hit ~cell_w:24 ~cell_h:20 ~rows:8 ~cols:8 d);
  (* defect on a vertical cell boundary hits both neighbours *)
  let d2 = { Sp.x = 24; y = 10; radius = 2 } in
  Alcotest.(check (list (pair int int))) "two cells" [ (0, 0); (0, 1) ]
    (List.sort compare (Sp.cells_hit ~cell_w:24 ~cell_h:20 ~rows:8 ~cols:8 d2));
  (* big defect clipped at the array corner *)
  let d3 = { Sp.x = 0; y = 0; radius = 25 } in
  let hits = Sp.cells_hit ~cell_w:24 ~cell_h:20 ~rows:8 ~cols:8 d3 in
  Alcotest.(check bool) "several cells" true (List.length hits >= 3);
  List.iter
    (fun (r, c) ->
      Alcotest.(check bool) "clipped" true (r >= 0 && r < 8 && c >= 0 && c < 8))
    hits

let test_faults_of_defect_bridges () =
  let r = rng () in
  let d = { Sp.x = 24; y = 10; radius = 4 } in
  let faults =
    Sp.faults_of_defect r ~cell_w:24 ~cell_h:20 ~rows:8 ~cols:8 d
  in
  let stuck, bridges =
    List.partition (function F.Stuck_at _ -> true | _ -> false) faults
  in
  Alcotest.(check int) "one bridge between two hits" (List.length stuck - 1)
    (List.length bridges)

let test_spatial_inject_clusters_rows () =
  (* large defects hit multiple adjacent rows; single-cell injection
     never does within one "defect" *)
  let r = rng () in
  let faults =
    Sp.inject r ~cell_w:24 ~cell_h:20 ~rows:64 ~cols:16 ~r_min:30 ~r_max:60
      ~mean:3.0 ~alpha:2.0
  in
  if faults <> [] then begin
    let rows = Sp.rows_hit faults in
    Alcotest.(check bool) "multi-row damage" true (List.length rows >= 2)
  end

(* ------------------------------------------------------------------ *)
(* validation diagnostics and sampling proposals *)

module P = Bisram_faults.Proposal

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let expect_invalid_msg name sub f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument m ->
      if not (contains m sub) then
        Alcotest.failf "%s: diagnostic %S does not name %S" name m sub

let test_mix_diagnostics_name_key () =
  expect_invalid_msg "negative names key" "transition weight -0.1" (fun () ->
      I.validate_mix { I.default_mix with I.transition = -0.1 });
  expect_invalid_msg "negative names key" "stuck_open weight" (fun () ->
      I.validate_mix { I.default_mix with I.stuck_open = -2.5 });
  expect_invalid_msg "nan names key" "data_retention weight is NaN" (fun () ->
      I.validate_mix { I.default_mix with I.data_retention = Float.nan });
  let zero =
    { I.stuck_at = 0.0
    ; transition = 0.0
    ; stuck_open = 0.0
    ; coupling_inversion = 0.0
    ; coupling_idempotent = 0.0
    ; state_coupling = 0.0
    ; data_retention = 0.0
    }
  in
  expect_invalid_msg "all-zero lists keys" "all-zero mix" (fun () ->
      I.validate_mix zero);
  expect_invalid_msg "all-zero lists keys" "coupling_idempotent" (fun () ->
      I.validate_mix zero)

let test_class_probability () =
  let saf = F.Stuck_at (cell 0 0, true) in
  let drf = F.Data_retention (cell 0 0, true) in
  Alcotest.(check (float 1e-12)) "stuck-at only saf" 1.0
    (I.class_probability I.stuck_at_only saf);
  Alcotest.(check (float 1e-12)) "stuck-at only drf" 0.0
    (I.class_probability I.stuck_at_only drf);
  Alcotest.(check (float 1e-12)) "default mix saf" 0.40
    (I.class_probability I.default_mix saf)

let test_log_pmf_degenerate_mean () =
  Alcotest.(check (float 0.0)) "poisson mean 0, k 0" 0.0
    (D.poisson_log_pmf ~mean:0.0 0);
  Alcotest.(check bool) "poisson mean 0, k 1" true
    (D.poisson_log_pmf ~mean:0.0 1 = Float.neg_infinity);
  Alcotest.(check bool) "pmf not nan" false
    (Float.is_nan (D.poisson_pmf ~mean:0.0 0));
  Alcotest.(check (float 0.0)) "nb mean 0, k 0" 0.0
    (D.negative_binomial_log_pmf ~mean:0.0 ~alpha:2.0 0);
  Alcotest.(check bool) "nb mean 0, k 3" true
    (D.negative_binomial_log_pmf ~mean:0.0 ~alpha:2.0 3 = Float.neg_infinity);
  (* log pmfs agree with the historical direct pmfs *)
  Alcotest.(check (float 1e-12)) "poisson log pmf" (D.poisson_pmf ~mean:1.7 3)
    (exp (D.poisson_log_pmf ~mean:1.7 3))

let test_proposal_validation () =
  let v ?(count = P.Count_nominal) ?mix model =
    P.validate ~nominal_mix:I.default_mix model { P.count; mix }
  in
  (* fine: the identity on every model *)
  v (P.Uniform 3);
  v (P.Poisson 0.05);
  v ~count:(P.Scaled { scale = 20.0; shift = 0.5 }) (P.Poisson 0.05);
  v ~count:(P.Stratified { nonzero = 0.5 })
    (P.Clustered { mean = 0.05; alpha = 2.0 });
  v ~mix:I.default_mix (P.Poisson 0.05);
  expect_invalid_msg "scale" "count_scale" (fun () ->
      v ~count:(P.Scaled { scale = 0.0; shift = 0.0 }) (P.Poisson 0.05));
  expect_invalid_msg "scale nan" "count_scale" (fun () ->
      v ~count:(P.Scaled { scale = Float.nan; shift = 0.0 }) (P.Poisson 0.05));
  expect_invalid_msg "shift" "count_shift -1 is negative" (fun () ->
      v ~count:(P.Scaled { scale = 1.0; shift = -1.0 }) (P.Poisson 0.05));
  expect_invalid_msg "scaled on fixed" "uniform mode" (fun () ->
      v ~count:(P.Scaled { scale = 2.0; shift = 0.0 }) (P.Uniform 2));
  expect_invalid_msg "nonzero range" "stratified_nonzero" (fun () ->
      v ~count:(P.Stratified { nonzero = 1.0 }) (P.Poisson 0.05));
  expect_invalid_msg "stratified on fixed" "uniform mode" (fun () ->
      v ~count:(P.Stratified { nonzero = 0.5 }) (P.Uniform 2));
  expect_invalid_msg "stratified needs mass" "mean must be positive" (fun () ->
      v ~count:(P.Stratified { nonzero = 0.5 }) (P.Poisson 0.0));
  (* absolute continuity: nominal default mix draws transitions, the
     stuck-at-only proposal mix cannot *)
  expect_invalid_msg "starved class named" "zero weight to transition"
    (fun () -> v ~mix:I.stuck_at_only (P.Poisson 0.05));
  (* proposal mixes are themselves validated *)
  expect_invalid_msg "proposal mix validated" "stuck_at weight" (fun () ->
      v ~mix:{ I.default_mix with I.stuck_at = -1.0 } (P.Poisson 0.05))

let test_proposal_identity_draws () =
  (* the identity proposal consumes the rng exactly like the nominal
     sampler: byte-identical draws, weight exactly 1 *)
  let check_model name model nominal_draw =
    let a = nominal_draw (rng ()) in
    let b =
      P.draw P.nominal ~count:model ~mix:I.default_mix (rng ()) ~rows:16
        ~cols:16
    in
    Alcotest.(check bool) (name ^ " identical draws") true (a = b);
    Alcotest.(check (float 0.0)) (name ^ " weight 1") 1.0
      (P.weight P.nominal ~count:model ~mix:I.default_mix b)
  in
  check_model "fixed" (P.Uniform 4) (fun r ->
      I.inject r ~rows:16 ~cols:16 ~mix:I.default_mix ~n:4);
  check_model "poisson" (P.Poisson 1.5) (fun r ->
      I.inject_poisson r ~rows:16 ~cols:16 ~mix:I.default_mix ~mean:1.5);
  check_model "clustered" (P.Clustered { mean = 1.5; alpha = 2.0 }) (fun r ->
      I.inject_clustered r ~rows:16 ~cols:16 ~mix:I.default_mix ~mean:1.5
        ~alpha:2.0)

let test_stratified_weights_closed_form () =
  let model = P.Poisson 0.05 in
  let p = { P.count = P.Stratified { nonzero = 0.5 }; mix = None } in
  let p0 = exp (D.poisson_log_pmf ~mean:0.05 0) in
  Alcotest.(check (float 1e-12)) "zero stratum" (p0 /. 0.5)
    (P.weight p ~count:model ~mix:I.stuck_at_only []);
  Alcotest.(check (float 1e-12)) "nonzero stratum" ((1.0 -. p0) /. 0.5)
    (P.weight p ~count:model ~mix:I.stuck_at_only
       [ F.Stuck_at (cell 0 0, true) ])

let prop_proposal_weights_mean_one =
  (* E_q[w] = 1: the average importance weight over proposal draws
     converges to 1 for any valid proposal (here checked loosely on
     4000 draws at a deterministic seed per case) *)
  QCheck.Test.make ~name:"proposal weights average to 1" ~count:20
    QCheck.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, which) ->
      let model = P.Poisson 0.08 in
      let p =
        match which with
        | 0 -> { P.count = P.Scaled { scale = 15.0; shift = 0.0 }; mix = None }
        | 1 -> { P.count = P.Stratified { nonzero = 0.5 }; mix = None }
        | _ ->
            { P.count = P.Scaled { scale = 5.0; shift = 0.1 }
            ; mix = Some I.default_mix
            }
      in
      let mix = { I.stuck_at_only with I.transition = 0.5 } in
      P.validate ~nominal_mix:mix model p;
      let r = Random.State.make [| seed; 77 |] in
      let n = 4000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        let faults = P.draw p ~count:model ~mix r ~rows:16 ~cols:16 in
        sum := !sum +. P.weight p ~count:model ~mix faults
      done;
      Float.abs ((!sum /. float_of_int n) -. 1.0) < 0.15)

(* One fault drawn step by step, independently of [Injection]'s
   prepared class table: the class by a running sum over the seven
   weights in declaration order against one uniform pick from their
   total, then the victim, its flag and, for a coupling class, an
   adjacent aggressor and the class's extra bit. *)
let reference_fault rng ~rows ~cols (mix : I.mix) =
  let weights =
    [ (mix.I.stuck_at, `Saf)
    ; (mix.I.transition, `Tf)
    ; (mix.I.stuck_open, `Sof)
    ; (mix.I.coupling_inversion, `Cfin)
    ; (mix.I.coupling_idempotent, `Cfid)
    ; (mix.I.state_coupling, `Cfst)
    ; (mix.I.data_retention, `Drf)
    ]
  in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weights in
  let pick = Random.State.float rng total in
  let rec select acc = function
    | [] -> `Saf
    | (w, k) :: rest -> if pick < acc +. w then k else select (acc +. w) rest
  in
  let victim =
    (* the column first: the sampler's record literal evaluates its
       fields right to left *)
    let col = Random.State.int rng cols in
    cell (Random.State.int rng rows) col
  in
  let flag = Random.State.bool rng in
  let aggressor () =
    let r = victim.F.row and c = victim.F.col in
    match
      List.filter
        (fun (r, c) -> r >= 0 && r < rows && c >= 0 && c < cols)
        [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ]
    with
    | [] -> victim
    | l ->
        let r, c = List.nth l (Random.State.int rng (List.length l)) in
        cell r c
  in
  match select 0.0 weights with
  | `Saf -> F.Stuck_at (victim, flag)
  | `Tf -> F.Transition (victim, flag)
  | `Sof -> F.Stuck_open victim
  | `Cfin -> F.Coupling_inversion { aggressor = aggressor (); victim }
  | `Cfid ->
      let aggressor = aggressor () in
      F.Coupling_idempotent
        { aggressor; rising = Random.State.bool rng; victim; forces = flag }
  | `Cfst ->
      let aggressor = aggressor () in
      F.State_coupling
        { aggressor; when_state = Random.State.bool rng; victim; reads_as = flag }
  | `Drf -> F.Data_retention (victim, flag)

let rec reference_faults rng ~rows ~cols mix n =
  if n = 0 then []
  else
    let f = reference_fault rng ~rows ~cols mix in
    f :: reference_faults rng ~rows ~cols mix (n - 1)

(* A prepared draw ([P.sampler], then [P.sample]) against the draw
   spelled step by step: the count from the per-call [D.poisson] /
   [D.negative_binomial] (or, in the nonzero stratum, the inverse CDF
   of the conditioned count), then [n] faults by [reference_fault] from
   the mix drawn from.  Mixes keep zero-weight classes, Poisson means
   reach past the split at 30 and clustered alphas straddle the Gamma
   boost at 1.  Both sides must return the same faults and leave the
   rng at the same place; so must [I.inject] and [reference_faults]. *)
let reference_draw (p : P.t) ~count ~mix rng ~rows ~cols =
  let nominal = function
    | P.Uniform n -> n
    | P.Poisson mean -> D.poisson rng mean
    | P.Clustered { mean; alpha } -> D.negative_binomial rng ~mean ~alpha
  in
  let scaled ~scale ~shift = function
    | P.Poisson mean -> P.Poisson ((mean *. scale) +. shift)
    | P.Clustered { mean; alpha } ->
        P.Clustered { mean = (mean *. scale) +. shift; alpha }
    | P.Uniform _ as m -> m
  in
  let pmf k = function
    | P.Uniform _ -> 0.0
    | P.Poisson mean -> D.poisson_pmf ~mean k
    | P.Clustered { mean; alpha } -> D.negative_binomial_pmf ~mean ~alpha k
  in
  let step k = function
    | P.Uniform _ -> 0.0
    | P.Poisson mean -> mean /. float_of_int (k + 1)
    | P.Clustered { mean; alpha } ->
        (float_of_int k +. alpha) /. float_of_int (k + 1)
        *. (mean /. (mean +. alpha))
  in
  let nonzero_count m =
    let p0 = pmf 0 m in
    let c = p0 +. (Random.State.float rng 1.0 *. (1.0 -. p0)) in
    let rec walk k pk cum =
      if cum < c && pk > 1e-300 && k < 1_000_000 then
        let pk = pk *. step k m in
        walk (k + 1) pk (cum +. pk)
      else k
    in
    let p1 = p0 *. step 0 m in
    walk 1 p1 (p0 +. p1)
  in
  let n =
    match p.P.count with
    | P.Count_nominal -> nominal count
    | P.Scaled { scale; shift } -> nominal (scaled ~scale ~shift count)
    | P.Stratified { nonzero } ->
        if Random.State.float rng 1.0 < nonzero then nonzero_count count else 0
  in
  reference_faults rng ~rows ~cols (Option.value p.P.mix ~default:mix) n

let prop_prepared_draw_equals_inject =
  let weight = QCheck.Gen.(frequency [ (1, return 0.0); (3, float_range 0.0 5.0) ]) in
  let mix_gen =
    QCheck.Gen.(
      map
        (fun ws ->
          match ws with
          | [ a; b; c; d; e; f; g ] ->
              let m =
                { I.stuck_at = a; transition = b; stuck_open = c
                ; coupling_inversion = d; coupling_idempotent = e
                ; state_coupling = f; data_retention = g }
              in
              if List.for_all (fun w -> w = 0.0) ws then { m with I.stuck_at = 1.0 }
              else m
          | _ -> assert false)
        (list_repeat 7 weight))
  in
  let gen =
    QCheck.Gen.(
      let* mix = mix_gen in
      let* model =
        oneof
          [ map (fun n -> P.Uniform n) (int_range 0 6)
          ; map (fun m -> P.Poisson m) (oneof [ float_range 0.0 3.0; float_range 29.0 42.0 ])
          ; map2 (fun mean alpha -> P.Clustered { mean; alpha })
              (float_range 0.0 4.0) (float_range 0.2 4.0) ]
      in
      let fixed = match model with P.Uniform _ -> true | _ -> false in
      let* count =
        if fixed then return P.Count_nominal
        else
          oneof
            [ return P.Count_nominal
            ; map2 (fun scale shift -> P.Scaled { scale; shift })
                (float_range 0.5 8.0) (float_range 0.0 1.0)
            ; map (fun nonzero -> P.Stratified { nonzero }) (float_range 0.05 0.95) ]
      in
      (* a proposal mix covers every class the nominal mix draws *)
      let* q =
        opt
          (map
             (fun extra ->
               { I.stuck_at = mix.I.stuck_at +. extra; transition = mix.I.transition
               ; stuck_open = mix.I.stuck_open +. extra
               ; coupling_inversion = mix.I.coupling_inversion
               ; coupling_idempotent = mix.I.coupling_idempotent
               ; state_coupling = mix.I.state_coupling +. extra
               ; data_retention = mix.I.data_retention })
             (float_range 0.0 2.0))
      in
      let* seed = int_bound 1_000_000 in
      return (mix, model, { P.count; mix = q }, seed))
  in
  QCheck.Test.make ~name:"pre-validated draw = Injection.inject" ~count:400
    (QCheck.make gen)
    (fun (mix, count, p, seed) ->
      let stratified_needs_mass =
        match (p.P.count, count) with
        | P.Stratified _, (P.Poisson 0.0 | P.Clustered { mean = 0.0; _ }) -> true
        | _ -> false
      in
      QCheck.assume (not stratified_needs_mass);
      let s = P.sampler p ~count ~mix in
      let a = Random.State.make [| seed |] and b = Random.State.make [| seed |] in
      let c = Random.State.make [| seed |] and d = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          let fa = P.sample s a ~rows:12 ~cols:9 in
          let fb = reference_draw p ~count ~mix b ~rows:12 ~cols:9 in
          let fc = I.inject c ~rows:12 ~cols:9 ~mix ~n:3 in
          let fd = reference_faults d ~rows:12 ~cols:9 mix 3 in
          fa = fb && Random.State.bits a = Random.State.bits b
          && fc = fd && Random.State.bits c = Random.State.bits d)
        (List.init 8 Fun.id))

let () =
  Alcotest.run "faults"
    [ ( "fault",
        [ Alcotest.test_case "victims" `Quick test_fault_victims
        ; Alcotest.test_case "class names" `Quick test_fault_class_names
        ] )
    ; ( "defect",
        [ Alcotest.test_case "poisson mean" `Quick test_poisson_mean
        ; Alcotest.test_case "poisson large lambda" `Quick
            test_poisson_large_lambda
        ; Alcotest.test_case "negative binomial" `Quick
            test_negative_binomial_mean_and_var
        ; Alcotest.test_case "pmf normalization" `Quick test_pmf_normalization
        ; Alcotest.test_case "nb p0 = stapper" `Quick test_nb_pmf_matches_sampler
        ] )
    ; ( "injection",
        [ Alcotest.test_case "bounds" `Quick test_injection_bounds
        ; Alcotest.test_case "stuck-at only" `Quick test_injection_stuck_at_only
        ; Alcotest.test_case "all classes" `Quick
            test_injection_mix_hits_all_classes
        ; Alcotest.test_case "faulty rows" `Quick test_faulty_rows
        ; Alcotest.test_case "mix rejects negative weight" `Quick
            test_mix_rejects_negative_weight
        ; Alcotest.test_case "mix rejects all-zero" `Quick
            test_mix_rejects_all_zero
        ; Alcotest.test_case "valid mixes accepted" `Quick
            test_mix_valid_passes
        ; Alcotest.test_case "diagnostics name the key" `Quick
            test_mix_diagnostics_name_key
        ; Alcotest.test_case "class probability" `Quick test_class_probability
        ; QCheck_alcotest.to_alcotest prop_coupling_aggressor_adjacent
        ; QCheck_alcotest.to_alcotest prop_gamma_positive
        ] )
    ; ( "proposal",
        [ Alcotest.test_case "log pmf degenerate mean" `Quick
            test_log_pmf_degenerate_mean
        ; Alcotest.test_case "validation diagnostics" `Quick
            test_proposal_validation
        ; Alcotest.test_case "identity draws byte-identical" `Quick
            test_proposal_identity_draws
        ; Alcotest.test_case "stratified weights closed form" `Quick
            test_stratified_weights_closed_form
        ; QCheck_alcotest.to_alcotest prop_proposal_weights_mean_one
        ; QCheck_alcotest.to_alcotest prop_prepared_draw_equals_inject
        ] )
    ; ( "spatial",
        [ Alcotest.test_case "radius distribution" `Quick
            test_radius_bounds_and_skew
        ; Alcotest.test_case "cells hit" `Quick test_cells_hit_geometry
        ; Alcotest.test_case "bridges" `Quick test_faults_of_defect_bridges
        ; Alcotest.test_case "row clustering" `Quick
            test_spatial_inject_clusters_rows
        ] )
    ]
