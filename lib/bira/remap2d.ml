module Org = Bisram_sram.Org

let assign ~spares ~burned lines =
  let is_burned s = s < Array.length burned && burned.(s) in
  let rec go next = function
    | [] -> Some []
    | line :: tl ->
        let rec free s = if s >= spares then None
          else if is_burned s then free (s + 1)
          else Some s
        in
        (match free next with
        | None -> None
        | Some s -> (
            match go (s + 1) tl with
            | None -> None
            | Some rest -> Some ((line, s) :: rest)))
  in
  go 0 (List.sort Int.compare lines)

(* Validate [pairs] and tabulate them once, so an access is one array
   lookup; the first pair for a line wins, and the map is the identity
   outside [0 .. n-1]. *)
let tabulate ~name ~line ~n ~spares pairs =
  let tbl = Array.init n Fun.id in
  List.iter
    (fun (x, s) ->
      if x < 0 || x >= n then invalid_arg (name ^ ": bad " ^ line);
      if s < 0 || s >= spares then invalid_arg (name ^ ": bad spare index");
      if tbl.(x) = x then tbl.(x) <- n + s)
    pairs;
  fun x -> if x >= 0 && x < n then Array.unsafe_get tbl x else x

let row_remap org pairs =
  tabulate ~name:"Remap2d.row_remap" ~line:"row" ~n:(Org.rows org)
    ~spares:org.Org.spares pairs

let col_remap org pairs =
  tabulate ~name:"Remap2d.col_remap" ~line:"col" ~n:(Org.cols org)
    ~spares:org.Org.spare_cols pairs
