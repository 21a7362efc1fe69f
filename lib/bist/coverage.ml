module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module F = Bisram_faults.Fault

type class_stats = { class_name : string; injected : int; detected : int }

type result = {
  per_class : class_stats list;
  total_injected : int;
  total_detected : int;
}

let coverage_pct c =
  if c.injected = 0 then 100.0
  else 100.0 *. float_of_int c.detected /. float_of_int c.injected

let total_pct r =
  if r.total_injected = 0 then 100.0
  else 100.0 *. float_of_int r.total_detected /. float_of_int r.total_injected

let evaluate org test ~backgrounds ~faults =
  let tally = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.replace tally name (0, 0)) F.all_class_names;
  let model = Model.create org in
  List.iter
    (fun fault ->
      Model.set_faults model [ fault ];
      let detected = not (Engine.passes model test ~backgrounds) in
      let name = F.class_name fault in
      let inj, det =
        match Hashtbl.find_opt tally name with Some x -> x | None -> (0, 0)
      in
      Hashtbl.replace tally name (inj + 1, (det + if detected then 1 else 0)))
    faults;
  let per_class =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt tally name with
        | Some (injected, detected) when injected > 0 ->
            Some { class_name = name; injected; detected }
        | Some _ | None -> None)
      F.all_class_names
  in
  { per_class
  ; total_injected = List.fold_left (fun a c -> a + c.injected) 0 per_class
  ; total_detected = List.fold_left (fun a c -> a + c.detected) 0 per_class
  }

let exhaustive_faults ?(include_same_word = false) org =
  let rows = Org.rows org and cols = Org.cols org in
  let singles = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let cell = { F.row = r; col = c } in
      singles :=
        F.Stuck_at (cell, false) :: F.Stuck_at (cell, true)
        :: F.Transition (cell, true) :: F.Transition (cell, false)
        :: F.Stuck_open cell
        :: F.Data_retention (cell, false) :: F.Data_retention (cell, true)
        :: !singles
    done
  done;
  let couplings = ref [] in
  let add_pair a v =
    couplings :=
      F.Coupling_inversion { aggressor = a; victim = v }
      :: F.Coupling_idempotent { aggressor = a; rising = true; victim = v; forces = true }
      :: F.Coupling_idempotent { aggressor = a; rising = false; victim = v; forces = false }
      :: F.State_coupling { aggressor = a; when_state = true; victim = v; reads_as = true }
      :: F.State_coupling { aggressor = a; when_state = false; victim = v; reads_as = false }
      :: !couplings
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let cell = { F.row = r; col = c } in
      if r + 1 < rows then begin
        let below = { F.row = r + 1; col = c } in
        add_pair cell below;
        add_pair below cell
      end;
      if c + 1 < cols then begin
        let right = { F.row = r; col = c + 1 } in
        add_pair cell right;
        add_pair right cell
      end;
      (* bit-adjacent cells of the same word sit bpc columns apart *)
      if include_same_word && c + org.Org.bpc < cols then begin
        let next_bit = { F.row = r; col = c + org.Org.bpc } in
        add_pair cell next_bit;
        add_pair next_bit cell
      end
    done
  done;
  List.rev_append !singles (List.rev !couplings)

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-5s %5d/%5d  %6.2f%%@," c.class_name c.detected
        c.injected (coverage_pct c))
    r.per_class;
  Format.fprintf ppf "TOTAL %5d/%5d  %6.2f%%@]" r.total_detected
    r.total_injected (total_pct r)
