(* Knuth's product method: count uniforms until their running product
   drops to [limit] = e^-lambda. *)
let knuth rng limit =
  let k = ref 0 and p = ref (1.0 *. Random.State.float rng 1.0) in
  while not (!p <= limit) do
    incr k;
    p := !p *. Random.State.float rng 1.0
  done;
  !k

(* Knuth's product method below lambda=30, with its limit e^-lambda
   computed once; above, the split X ~ Pois(30) + Pois(lambda-30), the
   remainder drawn first. *)
let rec poisson_sampler lambda =
  assert (lambda >= 0.0);
  if lambda = 0.0 then fun _ -> 0
  else if lambda > 30.0 then begin
    let first = poisson_sampler 30.0
    and rest = poisson_sampler (lambda -. 30.0) in
    fun rng ->
      let r = rest rng in
      first rng + r
  end
  else
    let limit = exp (-.lambda) in
    fun rng -> knuth rng limit

let poisson rng lambda = poisson_sampler lambda rng

(* Marsaglia-Tsang for shape >= 1, from d = shape - 1/3 and
   c = 1 / sqrt (9 d). *)
let marsaglia rng ~d ~c ~scale =
  let rec normal () =
    (* Box-Muller *)
    let u1 = Random.State.float rng 1.0 and u2 = Random.State.float rng 1.0 in
    if u1 <= 0.0 then normal ()
    else sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  let rec try_once () =
    let x = normal () in
    let v = (1.0 +. (c *. x)) ** 3.0 in
    if v <= 0.0 then try_once ()
    else
      let u = Random.State.float rng 1.0 in
      if log u < (0.5 *. x *. x) +. d -. (d *. v) +. (d *. log v) then
        d *. v *. scale
      else try_once ()
  in
  try_once ()

let marsaglia_constants shape =
  let d = shape -. (1.0 /. 3.0) in
  (d, 1.0 /. sqrt (9.0 *. d))

(* Marsaglia-Tsang's constants computed once; below shape 1, the
   boost Gamma(a) = Gamma(a+1) * U^(1/a), U drawn first. *)
let gamma_sampler ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  if shape < 1.0 then begin
    let d, c = marsaglia_constants (shape +. 1.0) and boost = 1.0 /. shape in
    fun rng ->
      let u = Random.State.float rng 1.0 in
      marsaglia rng ~d ~c ~scale *. (u ** boost)
  end
  else
    let d, c = marsaglia_constants shape in
    fun rng -> marsaglia rng ~d ~c ~scale

let gamma rng ~shape ~scale = gamma_sampler ~shape ~scale rng

(* Gamma-Poisson mixture: lambda ~ Gamma(alpha, mean/alpha), its
   constants computed once; only the drawn lambda's Poisson limit is
   per draw. *)
let negative_binomial_sampler ~mean ~alpha =
  assert (mean >= 0.0 && alpha > 0.0);
  if mean = 0.0 then fun _ -> 0
  else
    let lambda = gamma_sampler ~shape:alpha ~scale:(mean /. alpha) in
    fun rng -> poisson rng (lambda rng)

let negative_binomial rng ~mean ~alpha =
  negative_binomial_sampler ~mean ~alpha rng

(* Lanczos log-gamma *)
let rec log_gamma x =
  let g = 7.0 in
  let coefs =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028
     ; 771.32342877765313; -176.61502916214059; 12.507343278686905
     ; -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7
    |]
  in
  if x < 0.5 then
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma_aux g coefs (1.0 -. x)
  else log_gamma_aux g coefs x

and log_gamma_aux g coefs x =
  let x = x -. 1.0 in
  let a = ref coefs.(0) in
  let t = x +. g +. 0.5 in
  for i = 1 to 8 do
    a := !a +. (coefs.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2.0 *. Float.pi))
  +. ((x +. 0.5) *. log t)
  -. t
  +. log !a

(* Degenerate mean 0 puts all mass on k = 0; without the guard the
   k = 0 term evaluates 0 * log 0 = nan. *)
let poisson_log_pmf ~mean k =
  assert (k >= 0);
  if mean = 0.0 then (if k = 0 then 0.0 else neg_infinity)
  else
    (float_of_int k *. log mean) -. mean -. log_gamma (float_of_int k +. 1.0)

let poisson_pmf ~mean k = exp (poisson_log_pmf ~mean k)

let negative_binomial_log_pmf ~mean ~alpha k =
  assert (k >= 0);
  if mean = 0.0 then (if k = 0 then 0.0 else neg_infinity)
  else
    let kf = float_of_int k in
    let p = mean /. (mean +. alpha) in
    log_gamma (kf +. alpha) -. log_gamma alpha
    -. log_gamma (kf +. 1.0)
    +. (alpha *. log (1.0 -. p))
    +. (kf *. log p)

let negative_binomial_pmf ~mean ~alpha k =
  exp (negative_binomial_log_pmf ~mean ~alpha k)
