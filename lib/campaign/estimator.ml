(* Rare-event estimation over campaign results: confidence intervals
   on the escape / repair-failure rates, effective-count handling of
   importance-weighted tallies, and an adaptive driver that stops a
   campaign once a target relative CI half-width is met.

   Interval machinery is self-contained (normal quantile, regularized
   incomplete beta via a Lentz continued fraction, bisection inverse)
   and fully deterministic — no special functions from outside the
   repo, identical bytes on every platform that rounds IEEE doubles
   the same way. *)

module J = Bisram_obs.Json
module Obs = Bisram_obs.Obs
module Defect = Bisram_faults.Defect

type interval = { lo : float; hi : float }

(* ------------------------------------------------------------------ *)
(* normal quantile (Acklam's rational approximation, |eps| < 1.2e-9) *)

let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Estimator.normal_quantile: p must be in (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02
     ; 1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00
    |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02
     ; 6.680131188771972e+01; -1.328068155288572e+01
    |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00
     ; -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00
    |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00
     ; 3.754408661907416e+00
    |]
  in
  let p_low = 0.02425 in
  if p < p_low then
    let q = sqrt (-2.0 *. log p) in
    (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
    *. q +. c.(5)
    |> fun num ->
    num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  else if p > 1.0 -. p_low then
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
       *. q +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  else
    let q = p -. 0.5 in
    let r = q *. q in
    ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
     *. r +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
        *. r +. 1.0)

(* ------------------------------------------------------------------ *)
(* regularized incomplete beta and its inverse *)

let log_beta a b = Defect.log_gamma a +. Defect.log_gamma b -. Defect.log_gamma (a +. b)

(* Lentz's continued fraction for I_x(a, b) (Numerical Recipes form) *)
let betacf a b x =
  let tiny = 1e-30 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1.0 /. !d;
  let h = ref !d in
  (try
     for m = 1 to 200 do
       let mf = float_of_int m in
       let m2 = 2.0 *. mf in
       let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
       d := 1.0 +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1.0 +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1.0 /. !d;
       h := !h *. !d *. !c;
       let aa =
         -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
       in
       d := 1.0 +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1.0 +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1.0 /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.0) < 1e-15 then raise Exit
     done
   with Exit -> ());
  !h

let reg_inc_beta ~a ~b x =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Estimator.reg_inc_beta: shape parameters must be positive";
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let bt =
      exp ((a *. log x) +. (b *. log (1.0 -. x)) -. log_beta a b)
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
    else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)

(* Inverse by bisection: monotone, bounded, and deterministic — 100
   halvings put the answer well below float resolution on [0, 1]. *)
let beta_inv ~a ~b p =
  if p <= 0.0 then 0.0
  else if p >= 1.0 then 1.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 100 do
      let mid = 0.5 *. (!lo +. !hi) in
      if reg_inc_beta ~a ~b mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

(* ------------------------------------------------------------------ *)
(* binomial intervals (on real-valued effective counts) *)

let check_counts name ~k ~n =
  if Float.is_nan k || Float.is_nan n || k < 0.0 || n < 0.0 || k > n then
    invalid_arg
      (Printf.sprintf "Estimator.%s: need 0 <= k <= n (got k %g, n %g)" name k
         n)

let check_level name level =
  if not (level > 0.0 && level < 1.0) then
    invalid_arg
      (Printf.sprintf "Estimator.%s: level must be in (0, 1) (got %g)" name
         level)

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let wilson ?(level = 0.95) ~k ~n () =
  check_counts "wilson" ~k ~n;
  check_level "wilson" level;
  if n = 0.0 then { lo = 0.0; hi = 1.0 }
  else begin
    let z = normal_quantile (1.0 -. ((1.0 -. level) /. 2.0)) in
    let p = k /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z
      *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
      /. denom
    in
    { lo = clamp01 (center -. half); hi = clamp01 (center +. half) }
  end

let clopper_pearson ?(level = 0.95) ~k ~n () =
  check_counts "clopper_pearson" ~k ~n;
  check_level "clopper_pearson" level;
  if n = 0.0 then { lo = 0.0; hi = 1.0 }
  else begin
    let alpha = 1.0 -. level in
    let lo =
      if k <= 0.0 then 0.0
      else beta_inv ~a:k ~b:(n -. k +. 1.0) (alpha /. 2.0)
    in
    let hi =
      if k >= n then 1.0
      else beta_inv ~a:(k +. 1.0) ~b:(n -. k) (1.0 -. (alpha /. 2.0))
    in
    { lo; hi }
  end

(* ------------------------------------------------------------------ *)
(* metrics over campaign results *)

type metric = Escape | Repair_failure_two_pass | Repair_failure_iterated

let metric_name = function
  | Escape -> "escape"
  | Repair_failure_two_pass -> "repair_failure_two_pass"
  | Repair_failure_iterated -> "repair_failure_iterated"

type estimate = {
  e_metric : metric;
  e_rate : float;  (** unbiased estimate of the nominal probability *)
  e_hits : int;  (** raw trials where the indicator fired *)
  e_trials : int;  (** raw trials aggregated *)
  e_k_eff : float;
  e_n_eff : float;
  e_level : float;
  e_wilson : interval;
  e_clopper_pearson : interval;
}

(* A trial with escapes in both flows is still one escaping trial. *)
let escape_trials (r : Campaign.result) =
  List.length
    (List.sort_uniq Int.compare
       (List.map (fun f -> f.Campaign.f_trial) r.Campaign.escapes))

let repair_failures (h : Campaign.histogram) =
  h.Campaign.too_many_faulty_rows + h.Campaign.fault_in_second_pass

let raw_hits (r : Campaign.result) = function
  | Escape -> escape_trials r
  | Repair_failure_two_pass -> repair_failures r.Campaign.two_pass
  | Repair_failure_iterated -> repair_failures r.Campaign.iterated

let metric_tally (w : Campaign.weighted) = function
  | Escape -> w.Campaign.w_escape
  | Repair_failure_two_pass -> w.Campaign.w_repair_fail_two_pass
  | Repair_failure_iterated -> w.Campaign.w_repair_fail_iterated

(* Importance-weighted tallies enter the binomial intervals through
   effective counts: with S1 = sum of hit weights and S2 = sum of
   squared hit weights,

     k_eff = S1^2 / S2        n_eff = N * S1 / S2

   keep the point estimate (k_eff / n_eff = S1 / N) and match the
   delta-method variance of the weighted estimator in the rare-event
   regime; with all weights 1 they reduce exactly to (k, N).  No hits
   degrades to (0, N): the interval then reflects the raw trial count,
   which is the defensible choice when the proposal saw nothing. *)
let effective_counts (w : Campaign.weighted) tally =
  let n = float_of_int w.Campaign.wn in
  let s1 = tally.Campaign.t_w and s2 = tally.Campaign.t_w2 in
  if s2 <= 0.0 then (0.0, n)
  else
    let k_eff = s1 *. s1 /. s2 in
    let n_eff = n *. s1 /. s2 in
    (Float.min k_eff n_eff, Float.max k_eff n_eff)

let estimate ?(level = 0.95) (r : Campaign.result) m =
  check_level "estimate" level;
  let hits = raw_hits r m in
  let trials = r.Campaign.trials_run in
  let rate, k_eff, n_eff =
    match r.Campaign.weighted with
    | None ->
        let rate =
          if trials = 0 then 0.0
          else float_of_int hits /. float_of_int trials
        in
        (rate, float_of_int hits, float_of_int trials)
    | Some w ->
        let tally = metric_tally w m in
        let rate =
          if w.Campaign.wn = 0 then 0.0
          else tally.Campaign.t_w /. float_of_int w.Campaign.wn
        in
        let k_eff, n_eff = effective_counts w tally in
        (rate, k_eff, n_eff)
  in
  { e_metric = m
  ; e_rate = rate
  ; e_hits = hits
  ; e_trials = trials
  ; e_k_eff = k_eff
  ; e_n_eff = n_eff
  ; e_level = level
  ; e_wilson = wilson ~level ~k:k_eff ~n:n_eff ()
  ; e_clopper_pearson = clopper_pearson ~level ~k:k_eff ~n:n_eff ()
  }

(* Relative half-width of the Wilson interval: the adaptive stopping
   statistic.  Infinite until the first hit (a zero rate can never meet
   a relative target). *)
let rel_half_width est =
  if est.e_rate <= 0.0 then infinity
  else (est.e_wilson.hi -. est.e_wilson.lo) /. (2.0 *. est.e_rate)

(* ------------------------------------------------------------------ *)
(* adaptive stopping *)

type stop_reason = Target_reached | Trial_cap | Interrupted

let stop_reason_name = function
  | Target_reached -> "target_reached"
  | Trial_cap -> "trial_cap"
  | Interrupted -> "interrupted"

type adaptive = {
  a_result : Campaign.result;
  a_target : float;
  a_metric : metric;
  a_batch : int;
  a_batches : int;
  a_reason : stop_reason;
  a_rel_half_width : float;
}

let run_adaptive ?now ?jobs ?lanes ?should_stop ?trial_deadline ?(batch = 992)
    ?(metric = Repair_failure_two_pass) ?(max_trials = 1_000_000) ?(level = 0.95)
    ?on_progress ?on_batch ~target cfg =
  if not (target > 0.0) then
    invalid_arg "Estimator.run_adaptive: target must be positive";
  if batch < 1 then invalid_arg "Estimator.run_adaptive: batch must be >= 1";
  if max_trials < 1 then
    invalid_arg "Estimator.run_adaptive: max_trials must be >= 1";
  check_level "run_adaptive" level;
  (* the batches [trials] spans, the last possibly partial *)
  let batches trials = (trials + batch - 1) / batch in
  let hw_json hw = if Float.is_finite hw then J.Float hw else J.Null in
  (* the stopping rule, on the fold of one campaign of up to
     [max_trials]: at every batch boundary, stop once the interval is
     narrow enough *)
  let rule r =
    let trials = r.Campaign.trials_run in
    let est = estimate ~level r metric in
    let hw = rel_half_width est in
    if Float.is_finite est.e_n_eff then
      Obs.observe "estimator.n_eff" (int_of_float est.e_n_eff);
    if Obs.would_log Obs.Info then
      Obs.emit ~domain:"estimator" "estimator.batch"
        [ ("batch", J.Int (batches trials))
        ; ("trials_total", J.Int trials)
        ; ("hits", J.Int est.e_hits)
        ; ("rel_half_width", hw_json hw)
        ];
    Option.iter
      (fun f -> f ~batches:(batches trials) ~trials ~rel_half_width:hw)
      on_batch;
    hw <= target
  in
  let r =
    Campaign.run ?now ?jobs ?lanes ?should_stop ?trial_deadline
      ~stop_rule:(batch, rule) ?on_progress
      { cfg with Campaign.trials = max_trials }
  in
  let trials = r.Campaign.trials_run in
  let n_batches = batches trials in
  let hw = rel_half_width (estimate ~level r metric) in
  let reason =
    if r.Campaign.truncated then Interrupted
    else if hw <= target then Target_reached
    else Trial_cap
  in
  Obs.add "estimator.batches" n_batches;
  Obs.add "estimator.trials" trials;
  Obs.emit ~domain:"estimator" "estimator.stop"
    [ ("reason", J.String (stop_reason_name reason))
    ; ("batches", J.Int n_batches)
    ; ("trials_total", J.Int trials)
    ; ("rel_half_width", hw_json hw)
    ];
  { a_result = r
  ; a_target = target
  ; a_metric = metric
  ; a_batch = batch
  ; a_batches = n_batches
  ; a_reason = reason
  ; a_rel_half_width = hw
  }

(* ------------------------------------------------------------------ *)
(* the schema-/3 report *)

let interval_json i = J.interval_json ~lo:i.lo ~hi:i.hi

let estimate_json est =
  J.Obj
    [ ("rate", J.Float est.e_rate)
    ; ("hits", J.Int est.e_hits)
    ; ("k_eff", J.Float est.e_k_eff)
    ; ("n_eff", J.Float est.e_n_eff)
    ; ("wilson", interval_json est.e_wilson)
    ; ("clopper_pearson", interval_json est.e_clopper_pearson)
    ]

let confidence_json ?(level = 0.95) r =
  J.Obj
    [ ("level", J.Float level)
    ; ("escape", estimate_json (estimate ~level r Escape))
    ; ( "repair_failure_two_pass"
      , estimate_json (estimate ~level r Repair_failure_two_pass) )
    ; ( "repair_failure_iterated"
      , estimate_json (estimate ~level r Repair_failure_iterated) )
    ]

let estimation_json (w : Campaign.weighted) =
  (* Kish effective sample size over all trials: how much nominal
     sample the weighted draw is worth overall *)
  let ess =
    if w.Campaign.w_sum2 <= 0.0 then 0.0
    else w.Campaign.w_sum *. w.Campaign.w_sum /. w.Campaign.w_sum2
  in
  J.Obj
    [ ("weighted_trials", J.Int w.Campaign.wn)
    ; ("weight_sum", J.Float w.Campaign.w_sum)
    ; ("weight_sum_sq", J.Float w.Campaign.w_sum2)
    ; ("ess", J.Float ess)
    ]

let adaptive_json a =
  J.Obj
    [ ("target_rel_half_width", J.Float a.a_target)
    ; ("metric", J.String (metric_name a.a_metric))
    ; ("batch", J.Int a.a_batch)
    ; ("batches", J.Int a.a_batches)
    ; ("rel_half_width", J.Float a.a_rel_half_width)
    ; ("reason", J.String (stop_reason_name a.a_reason))
    ]

(* The /3 report is the /2 report with the schema field rewritten and
   the estimation sections appended — a strict superset, so consumers
   of the /2 fields keep working and the byte-identity property of the
   underlying document is preserved field for field. *)
let report_json ?(level = 0.95) ?adaptive (r : Campaign.result) =
  let base =
    match Campaign.to_json r with
    | J.Obj fields ->
        List.map
          (function
            | "schema", J.String _ -> ("schema", J.String "bisram-campaign/3")
            | kv -> kv)
          fields
    | _ -> assert false
  in
  let extra =
    [ ("confidence", confidence_json ~level r) ]
    @ (match r.Campaign.weighted with
      | None -> []
      | Some w -> [ ("estimation", estimation_json w) ])
    @
    match adaptive with
    | None -> []
    | Some a -> [ ("adaptive", adaptive_json a) ]
  in
  J.Obj (base @ extra)

let report_string ?level ?adaptive r =
  J.to_string (report_json ?level ?adaptive r)

let pretty_report_string ?level ?adaptive r =
  J.to_pretty_string (report_json ?level ?adaptive r)
