module Org = Bisram_sram.Org
module Model = Bisram_sram.Model

(* The candidate pool: single march elements, plus composite "retention
   wait then verify read" pairs that a purely single-element greedy
   could never justify. *)
let element_pool =
  let elem order ops = March.Elem { order; ops } in
  [ [ elem March.Up [ March.W false ] ]
  ; [ elem March.Up [ March.W true ] ]
  ; [ elem March.Up [ March.R false; March.W true ] ]
  ; [ elem March.Up [ March.R true; March.W false ] ]
  ; [ elem March.Up [ March.R false; March.W true; March.R true ] ]
  ; [ elem March.Up [ March.R true; March.W false; March.R false ] ]
  ; [ elem March.Down [ March.R false; March.W true ] ]
  ; [ elem March.Down [ March.R true; March.W false ] ]
  ; [ elem March.Down [ March.R false; March.W true; March.R true ] ]
  ; [ elem March.Down [ March.R true; March.W false; March.R false ] ]
  ; [ elem March.Up [ March.R false ] ]
  ; [ elem March.Up [ March.R true ] ]
    (* retention wait plus the verify read that makes it observable *)
  ; [ March.Wait; elem March.Up [ March.R false ] ]
  ; [ March.Wait; elem March.Up [ March.R true ] ]
  ]

type result = {
  march : March.t;
  coverage : Coverage.result;
  achieved : float;
}

let ops_of_items items =
  List.fold_left
    (fun acc item ->
      match item with
      | March.Wait -> acc
      | March.Elem { ops; _ } -> acc + List.length ops)
    0 items

let valid_on_clean org march ~backgrounds =
  let m = Model.create org in
  Engine.passes m march ~backgrounds

let evaluate org march ~backgrounds ~faults =
  Coverage.evaluate org march ~backgrounds ~faults

let synthesize ?(max_elements = 12) org ~faults ~backgrounds ~target =
  if faults = [] then invalid_arg "Synthesis.synthesize: no faults";
  let mk items = March.make ~name:"synthesized" items in
  let seed = [ March.Elem { order = March.Up; ops = [ March.W false ] } ] in
  let score cov = Coverage.total_pct cov in
  let rec grow items cov =
    let current = score cov in
    if current >= target || List.length items >= max_elements then
      { march = mk items; coverage = cov; achieved = current }
    else begin
      (* best (gain per op) extension that stays valid on a clean RAM *)
      let best =
        List.fold_left
          (fun best cand ->
            let items' = items @ cand in
            let march' = mk items' in
            if List.length items' > max_elements then best
            else if not (valid_on_clean org march' ~backgrounds) then best
            else begin
              let cov' = evaluate org march' ~backgrounds ~faults in
              let gain = score cov' -. current in
              let per_op = gain /. float_of_int (max 1 (ops_of_items cand)) in
              match best with
              | Some (best_per_op, _, _, _) when best_per_op >= per_op -> best
              | _ -> Some (per_op, gain, items', cov')
            end)
          None element_pool
      in
      match best with
      | Some (_, gain, items', cov') when gain > 0.0 -> grow items' cov'
      | Some _ | None ->
          (* no extension helps: return what we have *)
          { march = mk items; coverage = cov; achieved = current }
    end
  in
  let cov0 = evaluate org (mk seed) ~backgrounds ~faults in
  grow seed cov0
