(* Pinned reference outputs (reference.json): for every workload and
   pinned seed, the outputs a correct program produces for window 0 of
   the campaign or for the whole explore sweep.

   Campaign outputs must match exactly.  Explore outputs must match the
   Pareto frontier and best-spares table exactly, and numeric fields
   within a relative tolerance, so a change of numerical method (say, a
   closed-form MTTF) is not counted as a failure. *)

module Campaign = Bisram_campaign.Campaign
module Explore = Bisram_explore.Explore
module J = Bisram_obs.Json

let file = "perfbench/reference.json"

let histogram (h : Campaign.histogram) =
  J.Obj
    [ ("passed_clean", J.Int h.passed_clean)
    ; ("repaired", J.Int h.repaired)
    ; ("too_many_faulty_rows", J.Int h.too_many_faulty_rows)
    ; ("fault_in_second_pass", J.Int h.fault_in_second_pass) ]

let of_campaign (r : Campaign.result) =
  J.Obj
    [ ("trials_run", J.Int r.trials_run)
    ; ("two_pass", histogram r.two_pass)
    ; ("iterated", histogram r.iterated)
    ; ( "rounds"
      , J.List (List.map (fun (k, n) -> J.List [ J.Int k; J.Int n ]) r.rounds) )
    ; ("escapes", J.Int (List.length r.escapes))
    ; ("divergences", J.Int (List.length r.divergences))
    ; ("tool_errors", J.Int (List.length r.tool_errors)) ]

let of_explore (r : Explore.result) =
  let report = Explore.report_json r in
  J.Obj
    (List.map
       (fun k -> (k, Option.value ~default:J.Null (J.member k report)))
       [ "points_total"; "points"; "pareto"; "best_spares" ])

(* Structure, integers, strings and booleans exactly; floats within a
   relative tolerance of 1e-3. *)
let rec agrees a b =
  match (a, b) with
  | J.Float x, J.Float y ->
      Float.abs (x -. y) <= 1e-3 *. Float.max (Float.abs x) (Float.abs y)
  | J.List xs, J.List ys ->
      List.length xs = List.length ys && List.for_all2 agrees xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && agrees x y) xs ys
  | x, y -> x = y

let load () =
  match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (file ^ ": " ^ e)

(* The pinned output for a workload and seed, if there is one. *)
let find doc ~workload ~seed =
  Option.bind (J.member workload doc) (J.member (string_of_int seed))
