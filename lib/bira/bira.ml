module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Engine = Bisram_bist.Engine
module Repair = Bisram_bisr.Repair

type strategy = Greedy | Essential | Exhaustive

let strategy_name = function
  | Greedy -> "bira-greedy"
  | Essential -> "bira-essential"
  | Exhaustive -> "bira-bnb"

let allocator : strategy -> (module Cover.Allocator) = function
  | Greedy -> (module Cover.Greedy)
  | Essential -> (module Cover.Essential)
  | Exhaustive -> (module Cover.Exhaustive)

type alloc = { a_rows : int list; a_cols : int list }

type result = {
  b_outcome : Repair.outcome;
  b_alloc : alloc option;
  b_rounds : int;
}

let unburned burned =
  Array.fold_left (fun n b -> if b then n else n + 1) 0 burned

(* the spare serving [line] in armed [pairs], or -1 *)
let rec spare_of line = function
  | [] -> -1
  | (l, s) :: rest -> if l = line then s else spare_of line rest

(* The 2D allocator of [Repair.iterate].  Learning: a mismatch on a
   repaired line means the spare serving it is itself faulty, so it is
   burned (rows take precedence when both lines are repaired); a
   mismatch elsewhere is a newly learned fault cell.  Arming: cover the
   learned cells with the unburned spares, then steer.  [extract]
   turns each march failure into its failing cells. *)
let flow ?max_rounds ~extract strategy model march ~backgrounds =
  let org = Model.org model in
  let (module A : Cover.Allocator) = allocator strategy in
  let fmap = Fault_map.create org in
  let burned_r = Array.make (Int.max org.Org.spares 1) false
  and burned_c = Array.make (Int.max org.Org.spare_cols 1) false in
  (* the armed (line, spare) pairs, in ascending line order *)
  let rpairs = ref [] and cpairs = ref [] in
  let learn_cell (r, c) =
    let s = spare_of r !rpairs in
    if s >= 0 then burned_r.(s) <- true
    else
      let s = spare_of c !cpairs in
      if s >= 0 then burned_c.(s) <- true
      else Fault_map.add_cell fmap ~row:r ~col:c
  in
  let learn failures =
    List.iter
      (fun f -> List.iter learn_cell (extract org f))
      failures;
    if Fault_map.overflowed fmap then `Full else `Ok
  in
  let arm () =
    let problem =
      {
        Cover.rows = Org.rows org;
        cols = Org.cols org;
        spare_rows = Int.min org.Org.spares (unburned burned_r);
        spare_cols = Int.min org.Org.spare_cols (unburned burned_c);
        cells = Fault_map.cells fmap;
      }
    in
    match A.solve problem with
    | Cover.Uncoverable -> `Full
    | Cover.Cover sol -> (
        match
          ( Remap2d.assign ~spares:org.Org.spares ~burned:burned_r
              sol.Cover.rep_rows,
            Remap2d.assign ~spares:org.Org.spare_cols ~burned:burned_c
              sol.Cover.rep_cols )
        with
        | None, _ | _, None -> `Full
        | Some rp, Some cp ->
            rpairs := rp;
            cpairs := cp;
            Model.set_remap model
              (match rp with [] -> None | _ -> Some (Remap2d.row_remap org rp));
            Model.set_col_remap model
              (match cp with [] -> None | _ -> Some (Remap2d.col_remap org cp));
            `Ok)
  in
  let lines pairs = List.map fst !pairs in
  let repaired () = lines rpairs in
  match
    Repair.iterate ?max_rounds { Repair.learn; arm; repaired } model march
      ~backgrounds
  with
  | (Repair.Repaired _ as b_outcome), b_rounds ->
      let b_alloc = Some { a_rows = lines rpairs; a_cols = lines cpairs } in
      { b_outcome; b_alloc; b_rounds }
  | b_outcome, b_rounds -> { b_outcome; b_alloc = None; b_rounds }

let run ?max_rounds ~fast =
  flow ?max_rounds ~extract:(Fault_map.failure_cells ~fast)

(* Had every failure's cells agreed, the [fast:false] flow would have
   learned, allocated and driven the model the same, op for op. *)
let run_checked ?max_rounds strategy model march ~backgrounds =
  let agreed = ref true in
  let same (r, c) (r', c') = Int.equal r r' && Int.equal c c' in
  let extract org f =
    let cells = Fault_map.failure_cells ~fast:true org f in
    if !agreed then
      agreed :=
        List.equal same cells (Fault_map.failure_cells ~fast:false org f);
    cells
  in
  let r = flow ?max_rounds ~extract strategy model march ~backgrounds in
  (r, !agreed)
