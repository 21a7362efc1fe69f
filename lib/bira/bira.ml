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

let run ?(max_rounds = 4) ~fast strategy model march ~backgrounds =
  let org = Model.org model in
  let (module A : Cover.Allocator) = allocator strategy in
  Model.set_remap model None;
  Model.set_col_remap model None;
  let fmap = Fault_map.create org in
  let failures = Engine.run model march ~backgrounds in
  Fault_map.add_failures ~fast fmap failures;
  if failures = [] then
    { b_outcome = Repair.Passed_clean; b_alloc = None; b_rounds = 1 }
  else
    let burned_r = Array.make (Int.max org.Org.spares 1) false
    and burned_c = Array.make (Int.max org.Org.spare_cols 1) false in
    let too_many rounds =
      Model.set_remap model None;
      Model.set_col_remap model None;
      {
        b_outcome = Repair.Repair_unsuccessful Repair.Too_many_faulty_rows;
        b_alloc = None;
        b_rounds = rounds;
      }
    in
    let rec round n =
      if Fault_map.overflowed fmap then too_many (n - 1)
      else if n > max_rounds then begin
        Model.set_remap model None;
        Model.set_col_remap model None;
        {
          b_outcome = Repair.Repair_unsuccessful Repair.Fault_in_second_pass;
          b_alloc = None;
          b_rounds = max_rounds;
        }
      end
      else
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
        | Cover.Uncoverable -> too_many (n - 1)
        | Cover.Cover sol -> (
            match
              ( Remap2d.assign ~spares:org.Org.spares ~burned:burned_r
                  sol.Cover.rep_rows,
                Remap2d.assign ~spares:org.Org.spare_cols ~burned:burned_c
                  sol.Cover.rep_cols )
            with
            | None, _ | _, None -> too_many (n - 1)
            | Some rpairs, Some cpairs ->
                Model.set_remap model
                  (if rpairs = [] then None
                   else Some (Remap2d.row_remap org rpairs));
                Model.set_col_remap model
                  (if cpairs = [] then None
                   else Some (Remap2d.col_remap org cpairs));
                let vfail = Engine.run model march ~backgrounds in
                if vfail = [] then
                  {
                    b_outcome = Repair.Repaired sol.Cover.rep_rows;
                    b_alloc =
                      Some
                        {
                          a_rows = sol.Cover.rep_rows;
                          a_cols = sol.Cover.rep_cols;
                        };
                    b_rounds = n;
                  }
                else begin
                  (* A mismatch on a repaired line means the spare
                     serving it is itself faulty: burn it (rows take
                     precedence when both lines are repaired) and
                     reallocate.  A mismatch elsewhere is a newly
                     learned fault cell. *)
                  List.iter
                    (fun f ->
                      List.iter
                        (fun (r, c) ->
                          match List.assoc_opt r rpairs with
                          | Some s -> burned_r.(s) <- true
                          | None -> (
                              match List.assoc_opt c cpairs with
                              | Some s -> burned_c.(s) <- true
                              | None -> Fault_map.add_cell fmap ~row:r ~col:c))
                        (Fault_map.failure_cells ~fast org f))
                    vfail;
                  round (n + 1)
                end)
    in
    if Fault_map.overflowed fmap then too_many 0 else round 1
