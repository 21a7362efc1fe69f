(* Growable sample series, the order statistics the benchmark reports,
   and the per-layer timing registry of the traced run. *)

module Clock = Bisram_parallel.Clock

type series = { mutable data : float array; mutable len : int }

let series () = { data = Array.make 64 0.0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; 0 for no samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median s = quantile (sorted s) 0.5

(* The tail percentile reported next to a median: the highest of these
   levels that still has at least ten samples above it.  Below twenty
   samples no level qualifies and the tail is the maximum. *)
let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail_level n =
  List.find_opt (fun q -> float_of_int n *. (1.0 -. q) >= 10.0) tail_levels

let tail s =
  let a = sorted s in
  match tail_level s.len with Some q -> quantile a q | None -> quantile a 1.0

(* ------------------------------------------------------------------ *)
(* layer timings *)

type trace = {
  on : bool;  (** false: [time] is plain [f ()], for the untraced re-drive *)
  layers : (string, series) Hashtbl.t;
  mutable attributed_ns : float;  (** sum of every recorded sample *)
}

let trace () = { on = true; layers = Hashtbl.create 32; attributed_ns = 0.0 }
let no_trace () = { (trace ()) with on = false }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some s -> s
  | None ->
      let s = series () in
      Hashtbl.add t.layers name s;
      s

let record t name ns =
  add (layer t name) ns;
  t.attributed_ns <- t.attributed_ns +. ns

let elapsed_ns t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0)

(* [time t name f] runs [f] and records its duration under [name]. *)
let time t name f =
  if not t.on then f ()
  else
    let t0 = Clock.now_ns () in
    let r = f () in
    record t name (elapsed_ns t0);
    r

(* [timed f] is [f ()] with its wall-clock seconds. *)
let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (Clock.now () -. t0, r)
