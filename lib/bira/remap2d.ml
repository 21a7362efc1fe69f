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

(* Does a pair of [pairs] name spare [s]? *)
let rec spare_given s = function
  | [] -> false
  | (_, s') :: rest -> Int.equal s s' || spare_given s rest

(* Validate [pairs] and tabulate them once, so an access is one array
   lookup; the map is the identity outside [0 .. n-1].  Each line and
   each spare may appear once: two lines on one spare would alias one
   physical line, and a line given twice has no one target. *)
let tabulate ~name ~line ~n ~spares pairs =
  let tbl = Array.init n Fun.id in
  let rec fill = function
    | [] -> ()
    | (x, s) :: rest ->
        if x < 0 || x >= n then invalid_arg (name ^ ": bad " ^ line);
        if s < 0 || s >= spares then invalid_arg (name ^ ": bad spare index");
        if tbl.(x) <> x then
          invalid_arg (Printf.sprintf "%s: %s %d given twice" name line x);
        if spare_given s rest then
          invalid_arg (Printf.sprintf "%s: spare %d given twice" name s);
        tbl.(x) <- n + s;
        fill rest
  in
  fill pairs;
  fun x -> if x >= 0 && x < n then Array.unsafe_get tbl x else x

let row_remap org pairs =
  tabulate ~name:"Remap2d.row_remap" ~line:"row" ~n:(Org.rows org)
    ~spares:org.Org.spares pairs

let col_remap org pairs =
  tabulate ~name:"Remap2d.col_remap" ~line:"col" ~n:(Org.cols org)
    ~spares:org.Org.spare_cols pairs
