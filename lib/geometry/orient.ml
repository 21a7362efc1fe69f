type t = R0 | R90 | R180 | R270 | Mx | Mx90 | My | My90

let all = [ R0; R90; R180; R270; Mx; Mx90; My; My90 ]

(* Represent each orientation as a 2x2 integer matrix [a b; c d] acting on
   column vectors; composition is then matrix product, which keeps the
   group law honest. *)
let matrix = function
  | R0 -> (1, 0, 0, 1)
  | R90 -> (0, -1, 1, 0)
  | R180 -> (-1, 0, 0, -1)
  | R270 -> (0, 1, -1, 0)
  | Mx -> (1, 0, 0, -1)
  | My -> (-1, 0, 0, 1)
  | Mx90 -> (0, -1, -1, 0) (* R90 after Mx *)
  | My90 -> (0, 1, 1, 0) (* R90 after My *)

let of_matrix = function
  | 1, 0, 0, 1 -> R0
  | 0, -1, 1, 0 -> R90
  | -1, 0, 0, -1 -> R180
  | 0, 1, -1, 0 -> R270
  | 1, 0, 0, -1 -> Mx
  | -1, 0, 0, 1 -> My
  | 0, -1, -1, 0 -> Mx90
  | 0, 1, 1, 0 -> My90
  | _ -> invalid_arg "Orient.of_matrix: not an orientation matrix"

let compose o1 o2 =
  let a1, b1, c1, d1 = matrix o1 and a2, b2, c2, d2 = matrix o2 in
  of_matrix
    ( (a1 * a2) + (b1 * c2),
      (a1 * b2) + (b1 * d2),
      (c1 * a2) + (d1 * c2),
      (c1 * b2) + (d1 * d2) )

let inverse o =
  let rec find = function
    | [] -> assert false
    | cand :: rest -> if compose cand o = R0 then cand else find rest
  in
  find all

let apply o (p : Point.t) =
  let a, b, c, d = matrix o in
  Point.make ((a * p.Point.x) + (b * p.Point.y)) ((c * p.Point.x) + (d * p.Point.y))

let equal (a : t) b = a = b

let to_string = function
  | R0 -> "R0"
  | R90 -> "R90"
  | R180 -> "R180"
  | R270 -> "R270"
  | Mx -> "MX"
  | Mx90 -> "MX90"
  | My -> "MY"
  | My90 -> "MY90"

let of_string s =
  match String.uppercase_ascii s with
  | "R0" -> Some R0
  | "R90" -> Some R90
  | "R180" -> Some R180
  | "R270" -> Some R270
  | "MX" -> Some Mx
  | "MX90" -> Some Mx90
  | "MY" -> Some My
  | "MY90" -> Some My90
  | _ -> None

let pp ppf o = Format.pp_print_string ppf (to_string o)
