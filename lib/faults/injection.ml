type mix = {
  stuck_at : float;
  transition : float;
  stuck_open : float;
  coupling_inversion : float;
  coupling_idempotent : float;
  state_coupling : float;
  data_retention : float;
}

let default_mix =
  { stuck_at = 0.40
  ; transition = 0.15
  ; stuck_open = 0.10
  ; coupling_inversion = 0.10
  ; coupling_idempotent = 0.10
  ; state_coupling = 0.05
  ; data_retention = 0.10
  }

let stuck_at_only =
  { stuck_at = 1.0
  ; transition = 0.0
  ; stuck_open = 0.0
  ; coupling_inversion = 0.0
  ; coupling_idempotent = 0.0
  ; state_coupling = 0.0
  ; data_retention = 0.0
  }

let retention_only = { stuck_at_only with stuck_at = 0.0; data_retention = 1.0 }

let named_mixes =
  [ ("default", default_mix); ("stuck-at", stuck_at_only)
  ; ("retention", retention_only) ]

let mix_weights mix =
  [ ("stuck_at", mix.stuck_at)
  ; ("transition", mix.transition)
  ; ("stuck_open", mix.stuck_open)
  ; ("coupling_inversion", mix.coupling_inversion)
  ; ("coupling_idempotent", mix.coupling_idempotent)
  ; ("state_coupling", mix.state_coupling)
  ; ("data_retention", mix.data_retention)
  ]

let validate_mix mix =
  List.iter
    (fun (name, w) ->
      if Float.is_nan w then
        invalid_arg (Printf.sprintf "Injection: %s weight is NaN" name);
      if w < 0.0 then
        invalid_arg
          (Printf.sprintf "Injection: %s weight %g is negative" name w))
    (mix_weights mix);
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 (mix_weights mix) in
  if total <= 0.0 then
    invalid_arg
      (Printf.sprintf
         "Injection: mix has no positive weight (all-zero mix: %s are all 0)"
         (String.concat ", " (List.map fst (mix_weights mix))))

let class_name = function
  | Fault.Stuck_at _ -> "stuck_at"
  | Fault.Transition _ -> "transition"
  | Fault.Stuck_open _ -> "stuck_open"
  | Fault.Coupling_inversion _ -> "coupling_inversion"
  | Fault.Coupling_idempotent _ -> "coupling_idempotent"
  | Fault.State_coupling _ -> "state_coupling"
  | Fault.Data_retention _ -> "data_retention"

let total_weight mix =
  List.fold_left (fun a (_, w) -> a +. w) 0.0 (mix_weights mix)

let class_weight mix fault =
  match fault with
  | Fault.Stuck_at _ -> mix.stuck_at
  | Fault.Transition _ -> mix.transition
  | Fault.Stuck_open _ -> mix.stuck_open
  | Fault.Coupling_inversion _ -> mix.coupling_inversion
  | Fault.Coupling_idempotent _ -> mix.coupling_idempotent
  | Fault.State_coupling _ -> mix.state_coupling
  | Fault.Data_retention _ -> mix.data_retention

let class_probability mix fault = class_weight mix fault /. total_weight mix

let random_cell rng ~rows ~cols =
  { Fault.row = Random.State.int rng rows; col = Random.State.int rng cols }

(* A physically adjacent distinct cell: vertical or horizontal neighbour,
   clamped to the array. *)
let neighbour rng ~rows ~cols (c : Fault.cell) =
  let candidates =
    List.filter
      (fun (r, k) -> r >= 0 && r < rows && k >= 0 && k < cols)
      [ (c.Fault.row - 1, c.Fault.col)
      ; (c.Fault.row + 1, c.Fault.col)
      ; (c.Fault.row, c.Fault.col - 1)
      ; (c.Fault.row, c.Fault.col + 1)
      ]
  in
  match candidates with
  | [] -> c (* degenerate 1x1 array *)
  | l ->
      let r, k = List.nth l (Random.State.int rng (List.length l)) in
      { Fault.row = r; col = k }

(* the fault classes, in [mix_weights] order *)
type kind = Saf | Tf | Sof | Cfin | Cfid | Cfst | Drf

let kinds = [| Saf; Tf; Sof; Cfin; Cfid; Cfst; Drf |]

(* A validated mix, ready to draw from: the running sums of its weights
   in class order.  [pick < cum.(i)] is the test [pick < acc +. w] of a
   fold over the weights, bit for bit, and the last sum is their
   total. *)
type sampler = float array

let sampler mix =
  validate_mix mix;
  let sum = ref 0.0 in
  Array.of_list
    (List.map
       (fun (_, w) ->
         sum := !sum +. w;
         !sum)
       (mix_weights mix))

let draw_fault cum rng ~rows ~cols =
  assert (rows > 0 && cols > 0);
  let last = Array.length cum - 1 in
  let pick = Random.State.float rng cum.(last) in
  let rec select i =
    if i > last then Saf else if pick < cum.(i) then kinds.(i) else select (i + 1)
  in
  let victim = random_cell rng ~rows ~cols in
  let flag = Random.State.bool rng in
  match select 0 with
  | Saf -> Fault.Stuck_at (victim, flag)
  | Tf -> Fault.Transition (victim, flag)
  | Sof -> Fault.Stuck_open victim
  | Cfin ->
      let aggressor = neighbour rng ~rows ~cols victim in
      Fault.Coupling_inversion { aggressor; victim }
  | Cfid ->
      let aggressor = neighbour rng ~rows ~cols victim in
      Fault.Coupling_idempotent
        { aggressor; rising = Random.State.bool rng; victim; forces = flag }
  | Cfst ->
      let aggressor = neighbour rng ~rows ~cols victim in
      Fault.State_coupling
        { aggressor; when_state = Random.State.bool rng; victim; reads_as = flag }
  | Drf -> Fault.Data_retention (victim, flag)

let sample s rng ~rows ~cols ~n =
  List.init n (fun _ -> draw_fault s rng ~rows ~cols)

let random_fault rng ~rows ~cols ~mix = draw_fault (sampler mix) rng ~rows ~cols

let inject rng ~rows ~cols ~mix ~n = sample (sampler mix) rng ~rows ~cols ~n

let inject_poisson rng ~rows ~cols ~mix ~mean =
  inject rng ~rows ~cols ~mix ~n:(Defect.poisson rng mean)

let inject_clustered rng ~rows ~cols ~mix ~mean ~alpha =
  inject rng ~rows ~cols ~mix ~n:(Defect.negative_binomial rng ~mean ~alpha)

let faulty_rows faults =
  faults
  |> List.map (fun f -> (Fault.victim f).Fault.row)
  |> List.sort_uniq Int.compare
