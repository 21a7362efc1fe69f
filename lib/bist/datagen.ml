module Word = Bisram_sram.Word

(* Packed Johnson counter: bit i of [state] is stage i.  One step is
   two shifts and a mask — no per-stage work, no allocation. *)
type t = { bpw : int; mask : int; mutable state : int }

let create ~bpw =
  if bpw <= 0 then invalid_arg "Datagen.create: bpw must be positive";
  if bpw > Word.max_width then
    invalid_arg
      (Printf.sprintf "Datagen.create: bpw %d exceeds Word.max_width (%d)"
         bpw Word.max_width);
  { bpw; mask = (1 lsl bpw) - 1; state = 0 }

let bpw t = t.bpw
let reset t = t.state <- 0
let state t = Word.of_int ~width:t.bpw t.state

let step t =
  let msb = (t.state lsr (t.bpw - 1)) land 1 in
  t.state <- ((t.state lsl 1) lor (1 - msb)) land t.mask

let required_count ~bpw = (bpw / 2) + 1

let half_cycle_backgrounds ~bpw =
  let g = create ~bpw in
  let out = ref [ state g ] in
  for _ = 1 to bpw do
    step g;
    out := state g :: !out
  done;
  List.rev !out

let required_backgrounds ~bpw =
  let half = Array.of_list (half_cycle_backgrounds ~bpw) in
  let n = required_count ~bpw in
  (* every second state, pinned to start at all-0 and end at all-1 *)
  List.init n (fun i ->
      if i = n - 1 then half.(bpw) else half.(min (2 * i) bpw))

let matches ~expected ~got = Word.equal expected got
