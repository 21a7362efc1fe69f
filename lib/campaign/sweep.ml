module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word

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
   sequence that exposes stuck-open cells the march may have missed. *)
let patterns org =
  let bpw = org.Org.bpw in
  let zero = Word.zero bpw and ones = Word.ones bpw in
  let alt = Word.init bpw (fun i -> i land 1 = 0) in
  let alt' = Word.lnot_ alt in
  [ ("all-0", fun _ -> zero)
  ; ("all-1", fun _ -> ones)
  ; ("checker", fun a -> if a land 1 = 0 then alt else alt')
  ; ("checker-inv", fun a -> if a land 1 = 0 then alt' else alt)
  ]

exception Found of mismatch

(* The scalar sweep drives the model's int API: the patterns hand out
   preallocated words, so [Word.to_int] is a field read and a clean
   check allocates nothing.  Words are built only for a mismatch. *)
let run ?(stop_at_first = false) model =
  let org = Model.org model in
  let words = org.Org.words in
  let mismatches = ref [] in
  let check ~pattern ~phase ~data addr =
    let expected = data addr in
    let got = Model.read_int model addr in
    if Word.to_int expected <> got then begin
      let got = Word.of_int ~width:org.Org.bpw got in
      let m = { addr; pattern; phase; expected; got } in
      if stop_at_first then raise (Found m);
      mismatches := m :: !mismatches
    end
  in
  try
    List.iter
      (fun (pattern, data) ->
        for a = 0 to words - 1 do
          Model.write_int model a (Word.to_int (data a))
        done;
        for a = 0 to words - 1 do
          check ~pattern ~phase:Read_up ~data a
        done;
        for a = words - 1 downto 0 do
          check ~pattern ~phase:Read_down ~data a
        done;
        Model.retention_wait model;
        for a = 0 to words - 1 do
          check ~pattern ~phase:Retention ~data a
        done)
      (patterns org);
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
  let check ~data addr =
    fail := !fail lor Lanes.read_mismatch lanes addr (data addr);
    if !fail = all then raise Saturated
  in
  (try
     List.iter
       (fun (_pattern, data) ->
         for a = 0 to words - 1 do
           Lanes.write_word lanes a (data a)
         done;
         for a = 0 to words - 1 do
           check ~data a
         done;
         for a = words - 1 downto 0 do
           check ~data a
         done;
         Lanes.retention_wait lanes;
         for a = 0 to words - 1 do
           check ~data a
         done)
       (patterns org);
     !fail
   with Saturated -> all)

let pp_mismatch ppf m =
  Format.fprintf ppf "addr %d [%s/%s]: expected %a, got %a" m.addr m.pattern
    (phase_name m.phase) Word.pp m.expected Word.pp m.got
