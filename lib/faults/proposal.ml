(* Biased sampling proposals for rare-event fault-injection campaigns.

   A proposal replaces the nominal trial distribution (fault count ~
   the campaign's count model, classes ~ the campaign mix) with a
   biased one that visits the rare failing region more often; every
   drawn trial carries the likelihood ratio

     w = p_count(n) / q_count(n) * prod_i p_class(c_i) / q_class(c_i)

   so that E_q[w * x] = E_p[x]: accumulating w-weighted indicators
   yields an unbiased estimate of the nominal escape / repair-failure
   probability.  The cell positions and per-class parameters of each
   fault are drawn identically under both distributions, so their
   densities cancel out of the ratio.

   Everything is driven by the caller's [Random.State.t] in a fixed
   consumption order (count first, then each fault), so the campaign's
   per-trial seed discipline — replay, checkpoint resume, byte-identical
   reports at any jobs/lanes — carries over unchanged.  The identity
   proposal ([nominal]) consumes the rng exactly like the unbiased
   sampler and weights every trial 1. *)

type count_model =
  | Uniform of int
  | Poisson of float
  | Clustered of { mean : float; alpha : float }

type count_proposal =
  | Count_nominal
  | Scaled of { scale : float; shift : float }
  | Stratified of { nonzero : float }

type t = { count : count_proposal; mix : Injection.mix option }

let nominal = { count = Count_nominal; mix = None }
let is_nominal p = p = nominal

(* ------------------------------------------------------------------ *)
(* count-model kernels *)

let log_pmf model k =
  match model with
  | Uniform n -> if k = n then 0.0 else neg_infinity
  | Poisson mean -> Defect.poisson_log_pmf ~mean k
  | Clustered { mean; alpha } -> Defect.negative_binomial_log_pmf ~mean ~alpha k

let pmf model k = exp (log_pmf model k)

let scaled_model model ~scale ~shift =
  match model with
  | Uniform _ ->
      invalid_arg
        "Proposal: count_scale/count_shift need a poisson or clustered \
         fault-count mode (uniform mode has a fixed count)"
  | Poisson mean -> Poisson ((mean *. scale) +. shift)
  | Clustered { mean; alpha } ->
      Clustered { mean = (mean *. scale) +. shift; alpha }

(* A count model's draw, its constants computed once. *)
let count_sampler = function
  | Uniform n -> fun _ -> n
  | Poisson mean -> Defect.poisson_sampler mean
  | Clustered { mean; alpha } -> Defect.negative_binomial_sampler ~mean ~alpha

(* pmf recurrence ratio pmf(k+1)/pmf(k), used to invert the CDF of the
   count conditioned on [n >= 1] without evaluating log-Gammas per
   step. *)
let pmf_step model k =
  match model with
  | Uniform _ -> 0.0
  | Poisson mean -> mean /. float_of_int (k + 1)
  | Clustered { mean; alpha } ->
      let p = mean /. (mean +. alpha) in
      (float_of_int k +. alpha) /. float_of_int (k + 1) *. p

(* Inverse-CDF draw of the nominal count conditioned on [n >= 1]:
   target cumulative mass c = p(0) + u * (1 - p(0)), then walk the pmf
   recurrence from k = 1 until the cumulative reaches c.  O(E[n | n>=1])
   steps — constant-ish at the low means this sampler exists for.
   p(0) and p(1) are computed once. *)
let nonzero_count_sampler model =
  match model with
  | Uniform n -> fun _ -> n (* point mass; validate requires n >= 1 via P(0) < 1 *)
  | _ ->
  let p0 = pmf model 0 in
  let p1 = p0 *. pmf_step model 0 in
  fun rng ->
    let u = Random.State.float rng 1.0 in
    let c = p0 +. (u *. (1.0 -. p0)) in
    let k = ref 1 in
    let pk = ref p1 in
    let cum = ref (p0 +. !pk) in
    while !cum < c && !pk > 1e-300 && !k < 1_000_000 do
      pk := !pk *. pmf_step model !k;
      incr k;
      cum := !cum +. !pk
    done;
    !k

(* ------------------------------------------------------------------ *)
(* validation *)

let finite name v =
  if Float.is_nan v || not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Proposal: %s must be finite (got %g)" name v)

let validate ~nominal_mix count_model p =
  Injection.validate_mix nominal_mix;
  (match p.count with
  | Count_nominal -> ()
  | Scaled { scale; shift } ->
      finite "count_scale" scale;
      finite "count_shift" shift;
      if scale <= 0.0 then
        invalid_arg
          (Printf.sprintf "Proposal: count_scale must be positive (got %g)"
             scale);
      if shift < 0.0 then
        invalid_arg
          (Printf.sprintf "Proposal: count_shift %g is negative" shift);
      ignore (scaled_model count_model ~scale ~shift)
  | Stratified { nonzero } ->
      finite "stratified_nonzero" nonzero;
      if nonzero <= 0.0 || nonzero >= 1.0 then
        invalid_arg
          (Printf.sprintf
             "Proposal: stratified_nonzero must be in (0, 1) (got %g)" nonzero);
      (match count_model with
      | Uniform _ ->
          invalid_arg
            "Proposal: stratified_nonzero needs a poisson or clustered \
             fault-count mode (uniform mode has a fixed count)"
      | _ -> ());
      let p0 = pmf count_model 0 in
      if p0 >= 1.0 then
        invalid_arg
          "Proposal: stratified sampling needs P(count >= 1) > 0 under the \
           nominal count model (mean must be positive)");
  match p.mix with
  | None -> ()
  | Some q ->
      Injection.validate_mix q;
      (* absolute continuity: any class the nominal mix can draw must be
         drawable under the proposal, or its likelihood ratio p/q is
         unbounded and the weighted estimator loses its variance
         guarantee.  Checked key by key for a precise diagnostic. *)
      List.iter2
        (fun (name, pw) (_, qw) ->
          if pw > 0.0 && qw <= 0.0 then
            invalid_arg
              (Printf.sprintf
                 "Proposal: proposal mix gives zero weight to %s, which the \
                  nominal mix draws (importance weights would be unbounded)"
                 name))
        (Injection.mix_weights nominal_mix)
        (Injection.mix_weights q)

(* ------------------------------------------------------------------ *)
(* drawing and weighting *)

(* A proposal's trial draw with every configuration constant computed
   once: the count draw and the class draw of the mix it draws from. *)
type sampler = { s_count : Random.State.t -> int; s_faults : Injection.sampler }

let prepare p ~count ~mix =
  let s_count =
    match p.count with
    | Count_nominal -> count_sampler count
    | Scaled { scale; shift } -> count_sampler (scaled_model count ~scale ~shift)
    | Stratified { nonzero } ->
        let nz = nonzero_count_sampler count in
        fun rng -> if Random.State.float rng 1.0 < nonzero then nz rng else 0
  in
  let mix = match p.mix with Some q -> q | None -> mix in
  { s_count; s_faults = Injection.sampler mix }

let sampler p ~count ~mix =
  validate ~nominal_mix:mix count p;
  prepare p ~count ~mix

let sample s rng ~rows ~cols =
  let n = s.s_count rng in
  Injection.sample s.s_faults rng ~rows ~cols ~n

let draw p ~count ~mix rng ~rows ~cols =
  sample (prepare p ~count ~mix) rng ~rows ~cols

let log_weight p ~count ~mix faults =
  let n = List.length faults in
  let count_term =
    match p.count with
    | Count_nominal -> 0.0
    | Scaled { scale; shift } ->
        log_pmf count n -. log_pmf (scaled_model count ~scale ~shift) n
    | Stratified { nonzero } ->
        let p0 = pmf count 0 in
        if n = 0 then log p0 -. log (1.0 -. nonzero)
        else log (1.0 -. p0) -. log nonzero
  in
  let mix_term =
    match p.mix with
    | None -> 0.0
    | Some q ->
        List.fold_left
          (fun acc f ->
            acc
            +. log (Injection.class_probability mix f)
            -. log (Injection.class_probability q f))
          0.0 faults
  in
  count_term +. mix_term

let weight p ~count ~mix faults = exp (log_weight p ~count ~mix faults)
