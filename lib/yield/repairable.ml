module D = Bisram_faults.Defect

type geometry = {
  regular_rows : int;
  spares : int;
  logic_fraction : float;
  growth_factor : float;
}

let make ~regular_rows ~spares ~logic_fraction ~growth_factor =
  if regular_rows <= 0 then invalid_arg "Repairable.make: rows";
  if spares < 0 then invalid_arg "Repairable.make: spares";
  (* NaN compares false against every bound, so test for the valid range
     instead of the invalid one *)
  if not (logic_fraction >= 0.0 && logic_fraction < 1.0) then
    invalid_arg "Repairable.make: logic_fraction must be in [0, 1)";
  if not (Float.is_finite growth_factor && growth_factor >= 1.0) then
    invalid_arg "Repairable.make: growth_factor must be finite and >= 1";
  { regular_rows; spares; logic_fraction; growth_factor }

let bare ~regular_rows =
  make ~regular_rows ~spares:0 ~logic_fraction:0.0 ~growth_factor:1.0

(* The distinct-rows DP state: p.(j) = P(j distinct bins so far), and
   p.(spares+1) absorbs "too many".  [dp_init] is the state after zero
   balls; [dp_step] throws one more ball; [dp_at_most] sums the
   repairable states. *)
let dp_init ~spares =
  let p = Array.make (spares + 2) 0.0 in
  p.(0) <- 1.0;
  p

let dp_step p ~rf ~spares =
  for j = spares + 1 downto 1 do
    let stay = p.(j) *. (float_of_int (Int.min j (spares + 1)) /. rf) in
    let come = p.(j - 1) *. ((rf -. float_of_int (j - 1)) /. rf) in
    p.(j) <- (if j <= spares then stay else p.(j)) +. come
  done;
  p.(0) <- 0.0 (* after >=1 ball, zero distinct bins impossible *)

let dp_at_most p ~spares =
  let total = ref 0.0 in
  for j = 0 to spares do
    total := !total +. p.(j)
  done;
  !total

let p_distinct_rows_at_most ~rows ~spares n =
  assert (rows > 0 && spares >= 0 && n >= 0);
  if spares >= rows then 1.0
  else begin
    let p = dp_init ~spares in
    let rf = float_of_int rows in
    for _ = 1 to n do
      dp_step p ~rf ~spares
    done;
    dp_at_most p ~spares
  end

(* probability that one fault lands in the regular array *)
let f_regular g =
  let total_rows = g.regular_rows + g.spares in
  (1.0 -. g.logic_fraction)
  *. (float_of_int g.regular_rows /. float_of_int total_rows)

let p_repairable g n =
  assert (n >= 0);
  if n = 0 then 1.0
  else
    (* all n faults must land in the regular array... *)
    let all_regular = f_regular g ** float_of_int n in
    (* ...and occupy at most [spares] distinct regular rows *)
    all_regular *. p_distinct_rows_at_most ~rows:g.regular_rows ~spares:g.spares n

(* Σ pmf(n) · p_repairable g n, with the distinct-rows DP advanced one
   ball per term instead of rebuilt from zero for every n: O(N·spares)
   rather than O(N²·spares).  Every float operation is the one
   [p_repairable] performs, in the same order, so the sum is
   bit-identical to the per-n form. *)
let mixture g ~mean ~pmf =
  if mean <= 0.0 then 1.0
  else begin
    let f_reg = f_regular g in
    let spares = g.spares in
    let always = spares >= g.regular_rows in
    let p = dp_init ~spares and rf = float_of_int g.regular_rows in
    let acc = ref 0.0 and mass = ref 0.0 in
    let n = ref 0 in
    (* sum until the count distribution's tail is negligible *)
    while !mass < 1.0 -. 1e-12 && !n < 100_000 do
      let pn = pmf !n in
      mass := !mass +. pn;
      let repairable =
        if !n = 0 then 1.0
        else begin
          let distinct =
            if always then 1.0
            else begin
              dp_step p ~rf ~spares;
              dp_at_most p ~spares
            end
          in
          (f_reg ** float_of_int !n) *. distinct
        end
      in
      acc := !acc +. (pn *. repairable);
      incr n
    done;
    !acc
  end

let check_mean ctx mean_defects =
  if not (Float.is_finite mean_defects && mean_defects >= 0.0) then
    invalid_arg
      (Printf.sprintf "%s: mean_defects must be finite and >= 0 (got %g)" ctx
         mean_defects)

let check_alpha ctx alpha =
  if not (Float.is_finite alpha && alpha > 0.0) then
    invalid_arg
      (Printf.sprintf "%s: alpha must be finite and > 0 (got %g)" ctx alpha)

let yield g ~mean_defects ~alpha =
  check_mean "Repairable.yield" mean_defects;
  check_alpha "Repairable.yield" alpha;
  let mean = mean_defects *. g.growth_factor in
  mixture g ~mean ~pmf:(fun n -> D.negative_binomial_pmf ~mean ~alpha n)

let yield_poisson g ~mean_defects =
  check_mean "Repairable.yield_poisson" mean_defects;
  let mean = mean_defects *. g.growth_factor in
  mixture g ~mean ~pmf:(fun n -> D.poisson_pmf ~mean n)

(* ------------------------------------------------------------------ *)
(* 2D (row + column) repairability *)

type geometry2 = {
  rows : int;
  cols : int;
  spare_rows : int;
  spare_cols : int;
}

let make2 ~rows ~cols ~spare_rows ~spare_cols =
  if rows <= 0 then invalid_arg "Repairable.make2: rows";
  if cols <= 0 then invalid_arg "Repairable.make2: cols";
  if spare_rows < 0 then invalid_arg "Repairable.make2: spare_rows";
  if spare_cols < 0 then invalid_arg "Repairable.make2: spare_cols";
  { rows; cols; spare_rows; spare_cols }

(* A set of small non-negative ints below a known bound, counting its
   distinct members: the seen-set of burnt spare lines and of faulty
   rows. *)
type seen = { marks : Bytes.t; mutable count : int }

let seen_set n = { marks = Bytes.make n '\000'; count = 0 }

let see s i =
  if Bytes.get s.marks i = '\000' then begin
    Bytes.set s.marks i '\001';
    s.count <- s.count + 1
  end

let clear s =
  Bytes.fill s.marks 0 (Bytes.length s.marks) '\000';
  s.count <- 0

(* Repairability of one explicit fault placement, by the same
   branch-and-bound cover the BIRA flow's optimal allocator uses.  A
   fault on a spare line burns that line (it cannot be deployed); a
   fault in the regular grid must be line-covered within the surviving
   budget.  A module with no regular-grid faults passes clean, so burnt
   spares alone never fail it. *)
let placement_repairable g cells =
  let reg = ref [] in
  let burnt_r = seen_set g.spare_rows and burnt_c = seen_set g.spare_cols in
  List.iter
    (fun (r, c) ->
      if r >= g.rows then see burnt_r (r - g.rows);
      if c >= g.cols then see burnt_c (c - g.cols);
      if r < g.rows && c < g.cols then reg := (r, c) :: !reg)
    cells;
  match !reg with
  | [] -> true
  | cells -> (
      let p =
        {
          Bisram_bira.Cover.rows = g.rows;
          cols = g.cols;
          spare_rows = Int.max 0 (g.spare_rows - burnt_r.count);
          spare_cols = Int.max 0 (g.spare_cols - burnt_c.count);
          cells;
        }
      in
      match Bisram_bira.Cover.Exhaustive.solve p with
      | Bisram_bira.Cover.Cover _ -> true
      | Bisram_bira.Cover.Uncoverable -> false)

(* No closed form exists for the 2D line-cover probability, so
   [p_repairable2] is a seeded internal Monte-Carlo over uniform cell
   placements — deterministic for given (samples, seed, n), which keeps
   campaign reports byte-stable. *)
let p_repairable2 ?(samples = 2000) ?(seed = 0x2D) g n =
  if samples <= 0 then invalid_arg "Repairable.p_repairable2: samples";
  if n < 0 then invalid_arg "Repairable.p_repairable2: n";
  if n = 0 then 1.0
  else begin
    let total_rows = g.rows + g.spare_rows
    and total_cols = g.cols + g.spare_cols in
    let rng = Random.State.make [| 0xB12A; seed; n |] in
    let good = ref 0 in
    for _ = 1 to samples do
      let cells =
        List.init n (fun _ ->
            (Random.State.int rng total_rows, Random.State.int rng total_cols))
      in
      if placement_repairable g cells then incr good
    done;
    float_of_int !good /. float_of_int samples
  end

(* Count mixture for the 2D model.  The tail is truncated at [n_max]
   faults; the truncated mass counts as unrepairable, so the result is
   a (tight) lower bound. *)
let mixture2 ?samples ?seed g ~mean ~pmf =
  if mean <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 and mass = ref 0.0 in
    let n = ref 0 in
    let n_max = 300 in
    while !mass < 1.0 -. 1e-9 && !n < n_max do
      let p = pmf !n in
      mass := !mass +. p;
      acc := !acc +. (p *. p_repairable2 ?samples ?seed g !n);
      incr n
    done;
    !acc
  end

let yield2 ?samples ?seed g ~mean_defects ~alpha =
  check_mean "Repairable.yield2" mean_defects;
  check_alpha "Repairable.yield2" alpha;
  mixture2 ?samples ?seed g ~mean:mean_defects ~pmf:(fun n ->
      D.negative_binomial_pmf ~mean:mean_defects ~alpha n)

let yield2_poisson ?samples ?seed g ~mean_defects =
  check_mean "Repairable.yield2_poisson" mean_defects;
  mixture2 ?samples ?seed g ~mean:mean_defects ~pmf:(fun n ->
      D.poisson_pmf ~mean:mean_defects n)

let yield_monte_carlo rng g ~mean_defects ~alpha ~trials =
  check_mean "Repairable.yield_monte_carlo" mean_defects;
  check_alpha "Repairable.yield_monte_carlo" alpha;
  if trials <= 0 then invalid_arg "Repairable.yield_monte_carlo: trials";
  let mean = mean_defects *. g.growth_factor in
  let total_rows = g.regular_rows + g.spares in
  let good = ref 0 in
  let rows_hit = seen_set g.regular_rows in
  for _ = 1 to trials do
    let n = D.negative_binomial rng ~mean ~alpha in
    if rows_hit.count > 0 then clear rows_hit;
    let ok = ref true in
    for _ = 1 to n do
      if !ok then begin
        let u = Random.State.float rng 1.0 in
        if u < g.logic_fraction then ok := false
        else begin
          let row = Random.State.int rng total_rows in
          if row >= g.regular_rows then ok := false (* hit a spare *)
          else see rows_hit row
        end
      end
    done;
    if !ok && rows_hit.count <= g.spares then incr good
  done;
  float_of_int !good /. float_of_int trials
