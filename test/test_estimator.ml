(* Tests for the rare-event estimation layer: interval math against
   closed forms, frequentist coverage on synthetic Bernoulli data,
   unbiasedness of importance-weighted estimates against the analytic
   rare-event probability, adaptive stopping, and byte-identity of the
   schema-/3 report across jobs/lanes and adaptive/fixed runs. *)

module C = Bisram_campaign.Campaign
module E = Bisram_campaign.Estimator
module J = Bisram_obs.Json
module Org = Bisram_sram.Org
module I = Bisram_faults.Injection
module P = Bisram_faults.Proposal
module Chaos = Bisram_chaos.Chaos

let close ?(eps = 1e-9) name expected got =
  if Float.abs (expected -. got) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ------------------------------------------------------------------ *)
(* interval math vs closed forms *)

let test_normal_quantile () =
  close ~eps:1.5e-9 "q(0.5)" 0.0 (E.normal_quantile 0.5);
  close ~eps:1e-6 "q(0.975)" 1.959963985 (E.normal_quantile 0.975);
  close ~eps:1e-6 "q(0.995)" 2.575829304 (E.normal_quantile 0.995);
  close ~eps:1.5e-9 "symmetry"
    (-.E.normal_quantile 0.975)
    (E.normal_quantile 0.025);
  List.iter
    (fun p ->
      match E.normal_quantile p with
      | _ -> Alcotest.failf "normal_quantile %g should raise" p
      | exception Invalid_argument _ -> ())
    [ 0.0; 1.0; -0.5; 1.5 ]

let test_reg_inc_beta_closed_forms () =
  (* I_x(1,1) = x;  I_x(2,1) = x^2;  I_x(1,b) = 1 - (1-x)^b *)
  List.iter
    (fun x ->
      close ~eps:1e-12 "I_x(1,1)" x (E.reg_inc_beta ~a:1.0 ~b:1.0 x);
      close ~eps:1e-12 "I_x(2,1)" (x *. x) (E.reg_inc_beta ~a:2.0 ~b:1.0 x);
      close ~eps:1e-12 "I_x(1,7)"
        (1.0 -. ((1.0 -. x) ** 7.0))
        (E.reg_inc_beta ~a:1.0 ~b:7.0 x))
    [ 0.0; 0.1; 0.37; 0.5; 0.81; 1.0 ]

let test_beta_inv_roundtrip () =
  List.iter
    (fun (a, b) ->
      List.iter
        (fun p ->
          close ~eps:1e-9
            (Printf.sprintf "I(I^-1) a=%g b=%g p=%g" a b p)
            p
            (E.reg_inc_beta ~a ~b (E.beta_inv ~a ~b p)))
        [ 0.025; 0.2; 0.5; 0.9; 0.975 ])
    [ (1.0, 1.0); (2.0, 9.0); (0.5, 0.5); (12.0, 3.0) ]

let test_wilson_closed_form () =
  (* k=5, n=10 at 95%: symmetric around 0.5, half-width
     z*sqrt(0.025 + z^2/400) / (1 + z^2/10) = 0.263405... *)
  let iv = E.wilson ~k:5.0 ~n:10.0 () in
  close ~eps:1e-4 "wilson lo (5/10)" 0.236595 iv.E.lo;
  close ~eps:1e-4 "wilson hi (5/10)" 0.763405 iv.E.hi;
  let z = E.wilson ~k:0.0 ~n:25.0 () in
  close "wilson lo at k=0" 0.0 z.E.lo;
  Alcotest.(check bool) "wilson hi(k=0) in (0,1)" true
    (z.E.hi > 0.0 && z.E.hi < 1.0);
  let f = E.wilson ~k:25.0 ~n:25.0 () in
  close "wilson hi at k=n" 1.0 f.E.hi;
  Alcotest.(check bool) "wilson lo(k=n) in (0,1)" true
    (f.E.lo > 0.0 && f.E.lo < 1.0)

let test_clopper_pearson_edges () =
  (* closed forms at the edges: k=0 -> hi = 1 - (alpha/2)^(1/n),
     k=n -> lo = (alpha/2)^(1/n). *)
  let n = 20.0 in
  let zero = E.clopper_pearson ~k:0.0 ~n () in
  close "cp lo at k=0" 0.0 zero.E.lo;
  close ~eps:1e-9 "cp hi at k=0"
    (1.0 -. (0.025 ** (1.0 /. n)))
    zero.E.hi;
  let full = E.clopper_pearson ~k:n ~n () in
  close "cp hi at k=n" 1.0 full.E.hi;
  close ~eps:1e-9 "cp lo at k=n" (0.025 ** (1.0 /. n)) full.E.lo;
  (* standard reference values for 2/10 at 95% *)
  let iv = E.clopper_pearson ~k:2.0 ~n:10.0 () in
  close ~eps:1e-4 "cp lo (2/10)" 0.025211 iv.E.lo;
  close ~eps:1e-4 "cp hi (2/10)" 0.556095 iv.E.hi

let test_intervals_degenerate_n_zero () =
  List.iter
    (fun iv ->
      close "lo" 0.0 iv.E.lo;
      close "hi" 1.0 iv.E.hi)
    [ E.wilson ~k:0.0 ~n:0.0 (); E.clopper_pearson ~k:0.0 ~n:0.0 () ]

let test_interval_validation () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ (fun () -> E.wilson ~k:(-1.0) ~n:10.0 ())
    ; (fun () -> E.wilson ~k:11.0 ~n:10.0 ())
    ; (fun () -> E.clopper_pearson ~k:Float.nan ~n:10.0 ())
    ; (fun () -> E.wilson ~level:0.0 ~k:1.0 ~n:10.0 ())
    ; (fun () -> E.wilson ~level:1.0 ~k:1.0 ~n:10.0 ())
    ]

(* ------------------------------------------------------------------ *)
(* frequentist coverage on synthetic Bernoulli data (deterministic
   seeds, so no flake): Clopper-Pearson guarantees >= level coverage;
   Wilson is approximate but must stay close at these sizes. *)

let binomial_draw st ~n ~p =
  let k = ref 0 in
  for _ = 1 to n do
    if Random.State.float st 1.0 < p then incr k
  done;
  !k

let coverage ~interval ~p ~n ~reps st =
  let covered = ref 0 in
  for _ = 1 to reps do
    let k = binomial_draw st ~n ~p in
    let iv = interval ~k:(float_of_int k) ~n:(float_of_int n) () in
    if iv.E.lo <= p && p <= iv.E.hi then incr covered
  done;
  float_of_int !covered /. float_of_int reps

let test_coverage_synthetic_bernoulli () =
  let reps = 400 in
  List.iter
    (fun (p, n) ->
      let st = Random.State.make [| 7; n; int_of_float (1e6 *. p) |] in
      let cp = coverage ~interval:(E.clopper_pearson ~level:0.95) ~p ~n ~reps st in
      let st = Random.State.make [| 7; n; int_of_float (1e6 *. p) |] in
      let wi = coverage ~interval:(E.wilson ~level:0.95) ~p ~n ~reps st in
      if cp < 0.93 then
        Alcotest.failf "CP coverage %.3f < 0.93 at p=%g n=%d" cp p n;
      if wi < 0.90 then
        Alcotest.failf "Wilson coverage %.3f < 0.90 at p=%g n=%d" wi p n)
    [ (0.05, 120); (0.3, 60); (0.5, 150) ]

(* ------------------------------------------------------------------ *)
(* campaign-level estimates *)

(* Rare-event rig: zero spare rows and a stuck-at-only mix make every
   nonempty fault set an unrepairable array, so the two-pass
   repair-failure indicator is exactly 1{n >= 1} and its nominal
   probability under Poisson(lambda) counts is 1 - exp(-lambda). *)
let rare_cfg ?proposal ?(trials = 300) ?(seed = 20) ~lambda () =
  let org = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:0 () in
  C.make_config ~org ~mix:I.stuck_at_only ~mode:(C.Poisson lambda) ?proposal
    ~trials ~seed ()

let test_estimate_unweighted_reduces_to_counts () =
  let cfg = rare_cfg ~lambda:0.5 ~trials:120 () in
  let r = C.run ~lanes:62 cfg in
  Alcotest.(check bool) "no weighted tallies without a proposal" true
    (r.C.weighted = None);
  let e = E.estimate r E.Repair_failure_two_pass in
  let h = r.C.two_pass in
  let hits = h.C.too_many_faulty_rows + h.C.fault_in_second_pass in
  Alcotest.(check int) "hits = histogram failures" hits e.E.e_hits;
  Alcotest.(check int) "trials" r.C.trials_run e.E.e_trials;
  close "k_eff = raw hits" (float_of_int hits) e.E.e_k_eff;
  close "n_eff = raw trials" (float_of_int r.C.trials_run) e.E.e_n_eff;
  close "rate = hits/trials"
    (float_of_int hits /. float_of_int r.C.trials_run)
    e.E.e_rate

let proposals_under_test =
  [ ("scaled x8", { P.count = P.Scaled { scale = 8.0; shift = 0.0 }; mix = None })
  ; ("stratified 0.5", { P.count = P.Stratified { nonzero = 0.5 }; mix = None })
  ; ( "stratified+mix"
    , { P.count = P.Stratified { nonzero = 0.6 }
      ; mix = Some { I.stuck_at_only with I.transition = 0.25 }
      } )
  ]

let prop_weighted_estimate_brackets_analytic =
  QCheck.Test.make ~name:"IS/stratified CI brackets analytic rare-event rate"
    ~count:8
    QCheck.(
      pair (int_range 0 (List.length proposals_under_test - 1))
        (pair (int_range 1 1000) (int_range 2 20)))
    (fun (pi, (seed, lam100)) ->
      let _, proposal = List.nth proposals_under_test pi in
      let lambda = float_of_int lam100 /. 100.0 in
      let cfg = rare_cfg ~proposal ~trials:300 ~seed ~lambda () in
      let r = C.run ~lanes:62 cfg in
      let p_true = 1.0 -. exp (-.lambda) in
      (* near-certain level: a violation means bias, not bad luck *)
      let e = E.estimate ~level:(1.0 -. 1e-6) r E.Repair_failure_two_pass in
      e.E.e_clopper_pearson.E.lo <= p_true
      && p_true <= e.E.e_clopper_pearson.E.hi)

let test_weighted_report_deterministic_jobs_lanes () =
  let proposal =
    { P.count = P.Stratified { nonzero = 0.5 }; mix = None }
  in
  let cfg = rare_cfg ~proposal ~trials:200 ~lambda:0.1 () in
  let base = E.report_string (C.run cfg) in
  List.iter
    (fun (jobs, lanes) ->
      Alcotest.(check string)
        (Printf.sprintf "report at jobs=%d lanes=%d" jobs lanes)
        base
        (E.report_string (C.run ~jobs ~lanes cfg)))
    [ (1, 62); (2, 1); (2, 62); (3, 31) ]

(* ------------------------------------------------------------------ *)
(* schema-/3 report structure *)

let test_report_v3_superset_of_v2 () =
  let r = C.run (rare_cfg ~lambda:0.5 ~trials:60 ()) in
  let v2 = C.to_json r and v3 = E.report_json r in
  (match J.member "schema" v3 with
  | Some (J.String "bisram-campaign/3") -> ()
  | _ -> Alcotest.fail "schema must be bisram-campaign/3");
  Alcotest.(check bool) "confidence section present" true
    (J.member "confidence" v3 <> None);
  Alcotest.(check bool) "no estimation section without a proposal" true
    (J.member "estimation" v3 = None);
  (match (v2, v3) with
  | J.Obj f2, J.Obj f3 ->
      List.iter
        (fun (k, v) ->
          if not (String.equal k "schema") then
            match List.assoc_opt k f3 with
            | Some v' when v = v' -> ()
            | _ -> Alcotest.failf "field %s not carried verbatim into /3" k)
        f2
  | _ -> Alcotest.fail "reports must be objects");
  (* confidence section carries all three metrics with both intervals *)
  match J.member "confidence" v3 with
  | Some (J.Obj fields) ->
      List.iter
        (fun m ->
          match List.assoc_opt m fields with
          | Some (J.Obj e) ->
              List.iter
                (fun k ->
                  if List.assoc_opt k e = None then
                    Alcotest.failf "confidence.%s.%s missing" m k)
                [ "rate"; "hits"; "k_eff"; "n_eff"; "wilson"; "clopper_pearson" ]
          | _ -> Alcotest.failf "confidence.%s missing" m)
        [ "escape"; "repair_failure_two_pass"; "repair_failure_iterated" ]
  | _ -> Alcotest.fail "confidence must be an object"

let test_estimation_section_when_weighted () =
  let proposal = { P.count = P.Scaled { scale = 4.0; shift = 0.0 }; mix = None } in
  let r = C.run (rare_cfg ~proposal ~lambda:0.1 ~trials:80 ()) in
  match J.member "estimation" (E.report_json r) with
  | Some (J.Obj fields) ->
      List.iter
        (fun k ->
          if List.assoc_opt k fields = None then
            Alcotest.failf "estimation.%s missing" k)
        [ "weighted_trials"; "weight_sum"; "weight_sum_sq"; "ess" ]
  | _ -> Alcotest.fail "estimation section must be present with a proposal"

(* ------------------------------------------------------------------ *)
(* adaptive stopping *)

let test_adaptive_merged_equals_fixed_run () =
  (* the adaptive result must be byte-identical to one fixed run of the
     same total size — naive and weighted alike, at jobs 1 and 2, with
     windows of only a ragged tail (40) and of a full 62-lane batch plus
     a tail (100) *)
  List.iter
    (fun (proposal, jobs, batch) ->
      let cfg = rare_cfg ?proposal ~lambda:0.5 ~trials:1 () in
      let a =
        E.run_adaptive ~jobs ~lanes:62 ~batch ~metric:E.Repair_failure_two_pass
          ~max_trials:400 ~target:0.35 cfg
      in
      Alcotest.(check bool) "stopped on target" true
        (a.E.a_reason = E.Target_reached);
      Alcotest.(check int) "whole batches"
        (a.E.a_batches * batch)
        a.E.a_result.C.trials_run;
      let fixed =
        C.run ~lanes:62 { cfg with C.trials = a.E.a_result.C.trials_run }
      in
      Alcotest.(check string) "merged == fixed, byte for byte"
        (E.report_string fixed)
        (E.report_string a.E.a_result))
    (List.concat_map
       (fun proposal ->
         List.concat_map
           (fun jobs ->
             List.map (fun batch -> (proposal, jobs, batch)) [ 40; 100 ])
           [ 1; 2 ])
       [ None; Some { P.count = P.Stratified { nonzero = 0.5 }; mix = None } ])

(* an offset window is the same trials as the matching slice of a run
   from 0: the same failure and tool-error records, global seeds and all
   (chaos keys on the trial, so the crashed trials are the same too).
   Oracle divergences are too rare to occur in 50 trials, so only their
   equality is checked. *)
let test_offset_window () =
  let cfg = C.make_config ~mode:(C.Poisson 3.0) ~trials:50 ~seed:7 () in
  Chaos.configure { Chaos.off with Chaos.seed = 5; Chaos.job_fail = 0.6 };
  let full, window =
    Fun.protect ~finally:Chaos.disarm (fun () ->
        (C.run cfg, C.run ~offset:20 { cfg with C.trials = 30 }))
  in
  let from_20 trial l = List.filter (fun x -> trial x >= 20) l in
  let failure_trial f = f.C.f_trial in
  let check_failures ?(present = true) name full window =
    if present then
      Alcotest.(check bool) (name ^ " present") true (window <> []);
    Alcotest.(check bool) (name ^ " = trials 20-49 of the full run") true
      (from_20 failure_trial full = window);
    List.iter
      (fun f ->
        Alcotest.(check int) (name ^ " global seed")
          (C.trial_seed cfg f.C.f_trial) f.C.f_seed)
      window
  in
  Alcotest.(check int) "window trials" 30 window.C.trials_run;
  check_failures "escapes" full.C.escapes window.C.escapes;
  check_failures ~present:false "divergences" full.C.divergences
    window.C.divergences;
  Alcotest.(check bool) "tool errors present" true (window.C.tool_errors <> []);
  Alcotest.(check bool) "tool errors = trials 20-49 of the full run" true
    (from_20 (fun e -> e.C.te_trial) full.C.tool_errors = window.C.tool_errors);
  List.iter
    (fun e ->
      Alcotest.(check int) "tool error global seed"
        (C.trial_seed cfg e.C.te_trial) e.C.te_seed)
    window.C.tool_errors;
  let rejected name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejected "negative offset" (fun () -> C.run ~offset:(-1) cfg);
  rejected "offset with a checkpoint" (fun () ->
      C.run ~offset:20
        ~checkpoint:(C.checkpoint ~path:"unused.ckpt" ())
        cfg)

let test_adaptive_trial_cap () =
  let cfg = rare_cfg ~lambda:0.5 ~trials:1 () in
  let a =
    E.run_adaptive ~lanes:62 ~batch:40 ~max_trials:80 ~target:0.0001 cfg
  in
  Alcotest.(check bool) "hit the cap" true (a.E.a_reason = E.Trial_cap);
  Alcotest.(check int) "ran exactly the cap" 80 a.E.a_result.C.trials_run;
  Alcotest.(check bool) "half-width above target" true
    (a.E.a_rel_half_width > 0.0001)

(* one budget for the whole adaptive run: a stub clock one second per
   reading exhausts a 5 s budget within the first few batches *)
let test_adaptive_one_budget () =
  let cfg =
    { (rare_cfg ~lambda:0.5 ~trials:1 ()) with C.max_seconds = Some 5.0 }
  in
  let clock = ref 0.0 in
  let now () =
    clock := !clock +. 1.0;
    !clock
  in
  let a =
    E.run_adaptive ~now ~lanes:62 ~batch:62 ~max_trials:620 ~target:1e-9 cfg
  in
  Alcotest.(check bool) "interrupted" true (a.E.a_reason = E.Interrupted);
  Alcotest.(check bool) "truncated" true a.E.a_result.C.truncated;
  if a.E.a_result.C.trials_run >= 620 then
    Alcotest.failf "ran %d trials past a spent budget"
      a.E.a_result.C.trials_run

let test_adaptive_stratified_needs_fewer_trials () =
  (* the headline property at low density: the stratified proposal
     reaches the same relative-CI target in fewer trials than naive
     sampling *)
  let target = 0.3 and lambda = 0.02 in
  let naive =
    E.run_adaptive ~lanes:62 ~batch:100 ~max_trials:8000 ~target
      (rare_cfg ~lambda ~trials:1 ())
  in
  let strat =
    E.run_adaptive ~lanes:62 ~batch:100 ~max_trials:8000 ~target
      (rare_cfg
         ~proposal:{ P.count = P.Stratified { nonzero = 0.5 }; mix = None }
         ~lambda ~trials:1 ())
  in
  Alcotest.(check bool) "both reached the target" true
    (naive.E.a_reason = E.Target_reached && strat.E.a_reason = E.Target_reached);
  if strat.E.a_result.C.trials_run * 2 > naive.E.a_result.C.trials_run then
    Alcotest.failf "stratified took %d trials vs naive %d — no reduction"
      strat.E.a_result.C.trials_run naive.E.a_result.C.trials_run

let test_adaptive_validation () =
  let cfg = rare_cfg ~lambda:0.5 ~trials:1 () in
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ (fun () -> E.run_adaptive ~target:0.0 cfg)
    ; (fun () -> E.run_adaptive ~target:0.1 ~batch:0 cfg)
    ; (fun () -> E.run_adaptive ~target:0.1 ~max_trials:0 cfg)
    ; (fun () -> E.run_adaptive ~target:0.1 ~level:1.0 cfg)
    ]

(* ------------------------------------------------------------------ *)
(* live progress agrees with the report *)

let progress =
  Alcotest.testable
    (fun ppf (p : C.progress) ->
      Format.fprintf ppf "done %d/%d esc %d div %d err %d clean %d" p.C.p_done
        p.C.p_total p.C.p_escapes p.C.p_divergences p.C.p_tool_errors
        p.C.p_clean)
    ( = )

(* The report of [run on_progress] and every snapshot it streamed, in
   delivery order. *)
let with_snapshots run =
  let seen = ref [] in
  let r = run (fun p -> seen := p :: !seen) in
  (r, List.rev !seen)

(* The last snapshot, after checking that no count ever went down and
   that the last one agrees with the report. *)
let final_snapshot name (r : C.result) snaps =
  let counts (p : C.progress) =
    [ p.C.p_done; p.C.p_escapes; p.C.p_divergences; p.C.p_tool_errors
    ; p.C.p_clean ]
  in
  ignore
    (List.fold_left
       (fun prev p ->
         List.iter2
           (fun a b ->
             if b < a then
               Alcotest.failf "%s: a count went down, %d -> %d" name a b)
           prev (counts p);
         counts p)
       [ 0; 0; 0; 0; 0 ] snaps);
  match List.rev snaps with
  | [] -> Alcotest.failf "%s: no snapshot" name
  | last :: _ ->
      Alcotest.(check (list int))
        (name ^ ": trials, escapes, divergences, tool errors")
        [ r.C.trials_run; List.length r.C.escapes
        ; List.length r.C.divergences; List.length r.C.tool_errors ]
        [ last.C.p_done; last.C.p_escapes; last.C.p_divergences
        ; last.C.p_tool_errors ];
      last

let test_progress_agrees_with_report () =
  (* repair-limited density: escapes, divergences, repaired and clean
     trials all occur in these 200 trials *)
  let cfg = C.make_config ~mode:(C.Poisson 3.0) ~trials:200 ~seed:7 () in
  let plain =
    List.map
      (fun (jobs, lanes) ->
        let r, snaps =
          with_snapshots (fun on_progress ->
              C.run ~jobs ~lanes ~on_progress cfg)
        in
        final_snapshot
          (Printf.sprintf "run jobs %d lanes %d" jobs lanes)
          r snaps)
      [ (1, 1); (1, 62); (2, 1); (2, 62) ]
  in
  let expected = List.hd plain in
  Alcotest.(check bool) "some trials clean, some not" true
    (expected.C.p_clean > 0 && expected.C.p_clean < 200);
  List.iter (Alcotest.check progress "same final snapshot" expected) plain;
  List.iter
    (fun jobs ->
      let a, snaps =
        with_snapshots (fun on_progress ->
            E.run_adaptive ~jobs ~lanes:62 ~batch:50 ~max_trials:200
              ~target:1e-9 ~on_progress cfg)
      in
      let last =
        final_snapshot
          (Printf.sprintf "adaptive jobs %d" jobs)
          a.E.a_result snaps
      in
      Alcotest.check progress "adaptive ends on the plain run's snapshot"
        expected last)
    [ 1; 2 ]

let () =
  Alcotest.run "estimator"
    [ ( "intervals"
      , [ Alcotest.test_case "normal quantile" `Quick test_normal_quantile
        ; Alcotest.test_case "incomplete beta closed forms" `Quick
            test_reg_inc_beta_closed_forms
        ; Alcotest.test_case "beta_inv roundtrip" `Quick
            test_beta_inv_roundtrip
        ; Alcotest.test_case "wilson closed form" `Quick
            test_wilson_closed_form
        ; Alcotest.test_case "clopper-pearson edges" `Quick
            test_clopper_pearson_edges
        ; Alcotest.test_case "n=0 degenerates to [0,1]" `Quick
            test_intervals_degenerate_n_zero
        ; Alcotest.test_case "validation" `Quick test_interval_validation
        ; Alcotest.test_case "coverage on synthetic Bernoulli" `Quick
            test_coverage_synthetic_bernoulli
        ] )
    ; ( "estimates"
      , [ Alcotest.test_case "unweighted reduces to raw counts" `Quick
            test_estimate_unweighted_reduces_to_counts
        ; QCheck_alcotest.to_alcotest prop_weighted_estimate_brackets_analytic
        ; Alcotest.test_case "weighted report deterministic (jobs, lanes)"
            `Quick test_weighted_report_deterministic_jobs_lanes
        ] )
    ; ( "report"
      , [ Alcotest.test_case "/3 is a strict superset of /2" `Quick
            test_report_v3_superset_of_v2
        ; Alcotest.test_case "estimation section when weighted" `Quick
            test_estimation_section_when_weighted
        ] )
    ; ( "adaptive"
      , [ Alcotest.test_case "merged equals fixed run" `Quick
            test_adaptive_merged_equals_fixed_run
        ; Alcotest.test_case "offset window" `Quick test_offset_window
        ; Alcotest.test_case "trial cap" `Quick test_adaptive_trial_cap
        ; Alcotest.test_case "one budget for the whole run" `Quick
            test_adaptive_one_budget
        ; Alcotest.test_case "stratified needs fewer trials" `Slow
            test_adaptive_stratified_needs_fewer_trials
        ; Alcotest.test_case "validation" `Quick test_adaptive_validation
        ] )
    ; ( "progress"
      , [ Alcotest.test_case "final snapshot agrees with the report" `Quick
            test_progress_agrees_with_report
        ] )
    ]
