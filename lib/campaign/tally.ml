(* The trial-record tally: the one definition of how a trial record
   counts — the outcome histograms, the repair-rounds table, the
   escape/divergence partition, tool errors, the clean count and,
   under a proposal, the importance weights — and the progress
   snapshots taken from the same counts.  [run]'s fold is its one
   caller, in strict trial order. *)

open Trial
open Record

type histogram = {
  passed_clean : int;
  repaired : int;
  too_many_faulty_rows : int;
  fault_in_second_pass : int;
}

let empty_histogram =
  { passed_clean = 0
  ; repaired = 0
  ; too_many_faulty_rows = 0
  ; fault_in_second_pass = 0
  }

let count_class h = function
  | Passed_clean -> { h with passed_clean = h.passed_clean + 1 }
  | Repaired -> { h with repaired = h.repaired + 1 }
  | Unsuccessful Repair.Too_many_faulty_rows ->
      { h with too_many_faulty_rows = h.too_many_faulty_rows + 1 }
  | Unsuccessful Repair.Fault_in_second_pass ->
      { h with fault_in_second_pass = h.fault_in_second_pass + 1 }

(* Weighted-tally machinery for the estimator layer.  When a proposal
   is armed, every trial carries an importance weight w; an indicator
   keeps the trial count, sum of weights and sum of squared weights of
   the trials where it fired, which is all the downstream
   effective-sample-size interval math needs.  Sums accumulate in
   strict trial-index order, so they are bit-identical however the
   trials were batched. *)

type indicator = { t_trials : int; t_w : float; t_w2 : float }

let empty_indicator = { t_trials = 0; t_w = 0.0; t_w2 = 0.0 }

let indicator_add t w =
  { t_trials = t.t_trials + 1; t_w = t.t_w +. w; t_w2 = t.t_w2 +. (w *. w) }

type weighted = {
  wn : int;
  w_sum : float;
  w_sum2 : float;
  w_escape : indicator;
  w_repair_fail_two_pass : indicator;
  w_repair_fail_iterated : indicator;
}

let empty_weighted =
  { wn = 0
  ; w_sum = 0.0
  ; w_sum2 = 0.0
  ; w_escape = empty_indicator
  ; w_repair_fail_two_pass = empty_indicator
  ; w_repair_fail_iterated = empty_indicator
  }

type result = {
  config : config;
  trials_run : int;
  truncated : bool;
  resumed_trials : int;
  two_pass : histogram;
  iterated : histogram;
  rounds : (int * int) list;  (** (verify rounds, trial count), sorted *)
  escapes : failure list;
  divergences : failure list;
  tool_errors : tool_error list;
  observed_yield_two_pass : float;
  observed_yield_iterated : float;
  weighted : weighted option;
}

type counts = {
  mutable c_trials : int;
  mutable c_two_pass : histogram;
  mutable c_iterated : histogram;
  c_rounds : int array;
      (** verify rounds below [dense_rounds] -> trials *)
  mutable c_rounds_over : (int * int) list;
      (** the rarer round counts past it, ascending *)
  mutable c_escapes : failure list;  (** newest first, like the next two *)
  mutable c_divergences : failure list;
  mutable c_tool_errors : tool_error list;
  mutable c_n_escapes : int;
  mutable c_n_divergences : int;
  mutable c_n_tool_errors : int;
  mutable c_clean : int;  (** records added (a result does not carry it) *)
  mutable c_weighted : weighted option;
}

(* Rounds are counted in an array up to this bound and in a list past
   it: a flow seldom runs more than a few rounds, and [max_rounds] is
   not bounded. *)
let dense_rounds = 16

let counts cfg =
  { c_trials = 0
  ; c_two_pass = empty_histogram
  ; c_iterated = empty_histogram
  ; c_rounds = Array.make dense_rounds 0
  ; c_rounds_over = []
  ; c_escapes = []
  ; c_divergences = []
  ; c_tool_errors = []
  ; c_n_escapes = 0
  ; c_n_divergences = 0
  ; c_n_tool_errors = 0
  ; c_clean = 0
  ; c_weighted = Option.map (fun _ -> empty_weighted) cfg.proposal
  }

let add_round c r =
  if r < dense_rounds then c.c_rounds.(r) <- c.c_rounds.(r) + 1
  else
    let rec bump = function
      | (r', n) :: rest when r' = r -> (r, n + 1) :: rest
      | ((r', _) as p) :: rest when r' < r -> p :: bump rest
      | l -> (r, 1) :: l
    in
    c.c_rounds_over <- bump c.c_rounds_over

let repair_failed = function
  | Unsuccessful _ -> true
  | Passed_clean | Repaired -> false

let add c rc =
  c.c_trials <- c.c_trials + 1;
  let escaped, two_pass_failed, iterated_failed =
    match rc.rc_body with
    | Rc_error e ->
        c.c_tool_errors <-
          { te_trial = rc.rc_index; te_seed = rc.rc_seed; te_error = e }
          :: c.c_tool_errors;
        c.c_n_tool_errors <- c.c_n_tool_errors + 1;
        (* a crashed trial observed no failure *)
        (false, false, false)
    | Rc_ok o ->
        if is_clean rc.rc_body then c.c_clean <- c.c_clean + 1;
        c.c_two_pass <- count_class c.c_two_pass o.rc_two_pass;
        c.c_iterated <- count_class c.c_iterated o.rc_iterated;
        add_round c o.rc_rounds;
        let escaped =
          List.fold_left
            (fun escaped f ->
              match f.f_kind with
              | Silent_escape ->
                  c.c_escapes <- f :: c.c_escapes;
                  c.c_n_escapes <- c.c_n_escapes + 1;
                  true
              | Oracle_divergence ->
                  c.c_divergences <- f :: c.c_divergences;
                  c.c_n_divergences <- c.c_n_divergences + 1;
                  escaped)
            false o.rc_failures
        in
        (escaped, repair_failed o.rc_two_pass, repair_failed o.rc_iterated)
  in
  match c.c_weighted with
  | Some acc ->
      let w = rc.rc_weight in
      let fired t cond = if cond then indicator_add t w else t in
      c.c_weighted <-
        Some
          { wn = acc.wn + 1
          ; w_sum = acc.w_sum +. w
          ; w_sum2 = acc.w_sum2 +. (w *. w)
          ; w_escape = fired acc.w_escape escaped
          ; w_repair_fail_two_pass =
              fired acc.w_repair_fail_two_pass two_pass_failed
          ; w_repair_fail_iterated =
              fired acc.w_repair_fail_iterated iterated_failed
          }
  | None -> ()

let result_of_counts config c ~resumed_trials =
  let trials_run = c.c_trials in
  let frac h =
    if trials_run = 0 then 0.0
    else float_of_int (h.passed_clean + h.repaired) /. float_of_int trials_run
  in
  { config
  ; trials_run
  ; truncated = trials_run < config.trials
  ; resumed_trials
  ; two_pass = c.c_two_pass
  ; iterated = c.c_iterated
  ; rounds =
      (List.init dense_rounds (fun r -> (r, c.c_rounds.(r)))
      |> List.filter (fun (_, n) -> n > 0))
      @ c.c_rounds_over
  ; escapes = List.rev c.c_escapes
  ; divergences = List.rev c.c_divergences
  ; tool_errors = List.rev c.c_tool_errors
  ; observed_yield_two_pass = frac c.c_two_pass
  ; observed_yield_iterated = frac c.c_iterated
  ; weighted = c.c_weighted
  }

type progress = {
  p_done : int;
  p_total : int;
  p_escapes : int;
  p_divergences : int;
  p_tool_errors : int;
  p_clean : int;
}

let progress_of_counts ~total c =
  { p_done = c.c_trials
  ; p_total = total
  ; p_escapes = c.c_n_escapes
  ; p_divergences = c.c_n_divergences
  ; p_tool_errors = c.c_n_tool_errors
  ; p_clean = c.c_clean
  }
