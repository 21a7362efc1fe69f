module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine

type phase = Read_up | Read_down | Retention

type mismatch = {
  addr : int;
  pattern : string;
  phase : phase;
  expected : Word.t;
  got : Word.t;
}

let phase_name = function
  | Read_up -> "read-up"
  | Read_down -> "read-down"
  | Retention -> "retention"

(* Data backgrounds of the sweep.  All-0 and all-1 exercise both cell
   polarities (and both data-retention decay directions after the wait);
   the checkerboard pair alternates the data along every I/O bit column
   from one address to the next, so a read observes the complement of
   the previous read on the same sense amplifier — the read-after-read
   sequence that exposes stuck-open cells the march may have missed.
   A pattern is its even addresses' word and a parity mask: an odd
   address holds [word lxor alt] ([None] for 0). *)
type pattern = { name : string; word : int; alt : int option }

let patterns org =
  let bpw = org.Org.bpw in
  let ones = Word.to_int (Word.ones bpw) in
  let checker = Word.to_int (Word.init bpw (fun i -> i land 1 = 0)) in
  let parity = Some ones in
  [ { name = "all-0"; word = 0; alt = None }
  ; { name = "all-1"; word = ones; alt = None }
  ; { name = "checker"; word = checker; alt = parity }
  ; { name = "checker-inv"; word = checker lxor ones; alt = parity }
  ]

exception Found of mismatch

(* Each pattern is four march elements — w(up), r(up), r(down), then a
   wait and r(up) — run by the engine's element loop: clean words in
   model spans, the address that stops a span per op.  The one failure
   callback reads the pattern and phase in flight, and words are built
   only for a mismatch. *)
let run ?(stop_at_first = false) model =
  let width = (Model.org model).Org.bpw in
  let port = Engine.port_of_model model in
  let mismatches = ref [] in
  let pattern = ref "" and phase = ref Read_up in
  let fail ~op:_ ~addr ~expected ~got =
    let m =
      { addr
      ; pattern = !pattern
      ; phase = !phase
      ; expected = Word.of_int ~width expected
      ; got = Word.of_int ~width got
      }
    in
    if stop_at_first then raise (Found m);
    mismatches := m :: !mismatches
  in
  let write = [| true |] and read = [| false |] and op_word = [| 0 |] in
  try
    List.iter
      (fun p ->
        pattern := p.name;
        op_word.(0) <- p.word;
        let alt = p.alt in
        Engine.run_element ?alt port ~up:true ~is_write:write ~op_word ~fail;
        phase := Read_up;
        Engine.run_element ?alt port ~up:true ~is_write:read ~op_word ~fail;
        phase := Read_down;
        Engine.run_element ?alt port ~up:false ~is_write:read ~op_word ~fail;
        Model.retention_wait model;
        phase := Retention;
        Engine.run_element ?alt port ~up:true ~is_write:read ~op_word ~fail)
      (patterns (Model.org model));
    List.rev !mismatches
  with Found m -> [ m ]

let clean model = run ~stop_at_first:true model = []

exception Saturated

(* Lane-wise sweep over a batch store: same pattern walk as [run], but
   the mismatch detail is reduced to a per-lane fail mask (a failing
   lane is re-swept by the scalar path for the report detail).  No
   initial clear — like [run], the sweep exercises the array as the
   flow left it. *)
let run_lanes lanes =
  let module Lanes = Bisram_sram.Lanes in
  let org = Lanes.org lanes in
  let words = org.Org.words in
  let all = Lanes.all_mask lanes in
  let fail = ref 0 in
  (try
     List.iter
       (fun p ->
         let word v = Word.of_int ~width:org.Org.bpw v in
         let even = word p.word
         and odd = word (p.word lxor Option.value p.alt ~default:0) in
         let data a = if a land 1 = 0 then even else odd in
         let check addr =
           fail := !fail lor Lanes.read_mismatch lanes addr (data addr);
           if !fail = all then raise Saturated
         in
         for a = 0 to words - 1 do
           Lanes.write_word lanes a (data a)
         done;
         for a = 0 to words - 1 do
           check a
         done;
         for a = words - 1 downto 0 do
           check a
         done;
         Lanes.retention_wait lanes;
         for a = 0 to words - 1 do
           check a
         done)
       (patterns org);
     !fail
   with Saturated -> all)

let pp_mismatch ppf m =
  Format.fprintf ppf "addr %d [%s/%s]: expected %a, got %a" m.addr m.pattern
    (phase_name m.phase) Word.pp m.expected Word.pp m.got
