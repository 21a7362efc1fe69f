module Org = Bisram_sram.Org

type config = { words : int; bpw : int; spare_words : int; lambda : float }

let of_org org ~lambda =
  if not (Float.is_finite lambda && lambda > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Reliability.of_org: lambda must be finite and > 0 (got %g)" lambda);
  { words = org.Org.words
  ; bpw = org.Org.bpw
  ; spare_words = Org.spare_words org
  ; lambda
  }

(* Lanczos log-gamma (local copy; tiny and keeps the library
   dependency-free). *)
let rec log_gamma x =
  if x < 0.5 then
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let g = 7.0 in
    let coefs =
      [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028
       ; 771.32342877765313; -176.61502916214059; 12.507343278686905
       ; -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7
      |]
    in
    let x = x -. 1.0 in
    let a = ref coefs.(0) in
    let t = x +. g +. 0.5 in
    for i = 1 to 8 do
      a := !a +. (coefs.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let log_choose n k =
  log_gamma (float_of_int n +. 1.0)
  -. log_gamma (float_of_int k +. 1.0)
  -. log_gamma (float_of_int (n - k) +. 1.0)

(* The j-th term C(w,j) q^j (1-q)^(w-j), from [log_c.(j)] =
   [log_choose w j], [lq] = log q and [l1q] = log (1-q). *)
let binomial_term ~log_c ~w ~lq ~l1q j =
  exp (log_c.(j) +. (float_of_int j *. lq) +. (float_of_int (w - j) *. l1q))

(* P(Binomial(w, q) <= s), summed in log space term by term. *)
let binomial_cdf ~log_c ~w ~q s =
  if q <= 0.0 then 1.0
  else if q >= 1.0 then if s >= w then 1.0 else 0.0
  else begin
    let lq = log q and l1q = log (1.0 -. q) in
    let total = ref 0.0 in
    for j = 0 to Int.min s w do
      total := !total +. binomial_term ~log_c ~w ~lq ~l1q j
    done;
    Float.min 1.0 !total
  end

let word_fault_prob c t =
  1.0 -. exp (-.c.lambda *. float_of_int c.bpw *. t)

(* R(t) of one config, with its binomial coefficients computed once:
   each evaluation then costs min(S,W)+1 [exp]s. *)
let curve c =
  let w = c.words and s = c.spare_words in
  let log_c = Array.init (Int.min s w + 1) (log_choose w) in
  fun t ->
    assert (t >= 0.0);
    if t = 0.0 then 1.0
    else begin
      let q = word_fault_prob c t in
      let spares_ok = (1.0 -. q) ** float_of_int s in
      spares_ok *. binomial_cdf ~log_c ~w ~q s
    end

let reliability c = curve c

(* R = x^S F(q) with x = 1-q = exp(-mu t) and F the binomial CDF, whose
   derivative is dF/dq = -W C(W-1,S) q^S x^(W-1-S) for S < W (F = 1
   otherwise), so -dR/dt = mu (S R(t) + W C(W-1,S) q^S x^W). *)
let failure_pdf c t =
  let w = c.words and s = c.spare_words in
  let mu = c.lambda *. float_of_int c.bpw in
  let regular =
    if s >= w then 0.0
    else begin
      (* q^0 = 1, also at t = 0 *)
      let lq = if s = 0 then 0.0 else log (word_fault_prob c t) in
      exp
        (log (float_of_int w)
        +. log_choose (w - 1) s
        +. (float_of_int s *. lq)
        -. (mu *. t *. float_of_int w))
    end
  in
  mu *. ((float_of_int s *. reliability c t) +. regular)

(* With N = W+S, R(t) = sum_{j<=min(S,W)} C(W,j) (1-x)^j x^(N-j), and
   dt = -dx/(mu x) turns each term's integral into C(W,j) B(j+1, N-j)/mu.
   The terms start at B(1,N) = 1/N and step by the ratio
   (W-j)/(N-j-1). *)
let mttf c =
  let w = c.words and n = c.words + c.spare_words in
  let last = Int.min c.spare_words w in
  let rec sum j term acc =
    let acc = acc +. term in
    if j = last then acc
    else
      sum (j + 1)
        (term *. float_of_int (w - j) /. float_of_int (n - j - 1))
        acc
  in
  sum 0 (1.0 /. float_of_int n) 0.0 /. (c.lambda *. float_of_int c.bpw)

(* [R_a(t) < R_b(t)] for configs that share words, bpw and lambda, so
   share q: one [word_fault_prob], one pair of logs and one term sum
   up to the larger spare count.  The partial sum at the smaller count
   is that curve's [binomial_cdf] bit for bit, the same terms added in
   the same order; each curve keeps its own spare factor and clamp. *)
let below_shared a b =
  let w = a.words and sa = a.spare_words and sb = b.spare_words in
  let lo = Int.min (Int.min sa sb) w and hi = Int.min (Int.max sa sb) w in
  let log_c = Array.init (hi + 1) (log_choose w) in
  fun t ->
    assert (t >= 0.0);
    if t = 0.0 then false
    else begin
      let q = word_fault_prob a t in
      let cdf_a, cdf_b =
        if q <= 0.0 then (1.0, 1.0)
        else if q >= 1.0 then
          ( (if sa >= w then 1.0 else 0.0)
          , if sb >= w then 1.0 else 0.0 )
        else begin
          let lq = log q and l1q = log (1.0 -. q) in
          let total = ref 0.0 and at_lo = ref 0.0 in
          for j = 0 to hi do
            total := !total +. binomial_term ~log_c ~w ~lq ~l1q j;
            if j = lo then at_lo := !total
          done;
          let small = Float.min 1.0 !at_lo and large = Float.min 1.0 !total in
          if sa <= sb then (small, large) else (large, small)
        end
      in
      let x = 1.0 -. q in
      (x ** float_of_int sa) *. cdf_a < (x ** float_of_int sb) *. cdf_b
    end

let crossover a b ~t0 ~t1 ~steps =
  assert (steps > 1 && t1 > t0);
  let below =
    if
      Int.equal a.words b.words && Int.equal a.bpw b.bpw
      && Float.equal a.lambda b.lambda
    then below_shared a b
    else
      let ra = curve a and rb = curve b in
      fun t -> ra t < rb t
  in
  let h = (t1 -. t0) /. float_of_int (steps - 1) in
  let rec go i =
    if i >= steps then None
    else begin
      let t = t0 +. (h *. float_of_int i) in
      if below t then Some t else go (i + 1)
    end
  in
  go 0
