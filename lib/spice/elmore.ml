type node = int

type t = {
  rdrive : float;
  mutable parent : (int * float) array;  (* node -> (parent, r of edge) *)
  mutable cap : float array;
  mutable n : int;
}

let create ~rdrive =
  { rdrive; parent = Array.make 8 (-1, 0.0); cap = Array.make 8 0.0; n = 1 }

let ensure t k =
  if k >= Array.length t.cap then begin
    let m = max (2 * Array.length t.cap) (k + 1) in
    let parent' = Array.make m (-1, 0.0) and cap' = Array.make m 0.0 in
    Array.blit t.parent 0 parent' 0 t.n;
    Array.blit t.cap 0 cap' 0 t.n;
    t.parent <- parent';
    t.cap <- cap'
  end

let add_segment t ~parent ~r ~c =
  assert (parent >= 0 && parent < t.n);
  assert (r >= 0.0 && c >= 0.0);
  let id = t.n in
  ensure t id;
  t.parent.(id) <- (parent, r);
  t.cap.(id) <- c;
  t.n <- id + 1;
  id

let add_cap t node c =
  assert (node >= 0 && node < t.n);
  t.cap.(node) <- t.cap.(node) +. c

(* Path from root to [node] as a list of (edge resistance, edge child). *)
let path_to t node =
  let rec go acc k =
    if k = 0 then acc
    else
      let p, r = t.parent.(k) in
      go ((k, r) :: acc) p
  in
  go [] node

(* Total capacitance in the subtree rooted at each node. *)
let subtree_caps t =
  (* parents always precede children, so one reverse pass suffices *)
  let acc = Array.copy t.cap in
  for i = t.n - 1 downto 1 do
    let p, _ = t.parent.(i) in
    acc.(p) <- acc.(p) +. acc.(i)
  done;
  acc

let delay t node =
  assert (node >= 0 && node < t.n);
  let sub = subtree_caps t in
  let total = sub.(0) in
  let along_path =
    List.fold_left (fun acc (child, r) -> acc +. (r *. sub.(child))) 0.0
      (path_to t node)
  in
  (t.rdrive *. total) +. along_path

let max_delay t =
  let best = ref 0.0 in
  for k = 0 to t.n - 1 do
    let d = delay t k in
    if d > !best then best := d
  done;
  !best

let rc_line ~rdrive ~r ~c ~cload =
  (rdrive *. (c +. cload)) +. (r *. ((c /. 2.0) +. cload))
