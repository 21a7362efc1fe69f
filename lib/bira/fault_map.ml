module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine

type t = {
  org : Org.t;
  bound : int;  (* max distinct cells any in-budget cover can span *)
  seen : Bytes.t;  (* one byte per regular cell, at row * cols + col *)
  mutable keys : int list;  (* the seen cells' indices, newest first *)
  mutable count : int;
  mutable overflowed : bool;
}

let create org =
  let bound =
    (org.Org.spares * Org.cols org) + (org.Org.spare_cols * Org.rows org)
  in
  { org
  ; bound
  ; seen = Bytes.make (Org.rows org * Org.cols org) '\000'
  ; keys = []
  ; count = 0
  ; overflowed = false
  }

let add_cell t ~row ~col =
  if row < 0 || row >= Org.rows t.org || col < 0 || col >= Org.cols t.org
  then invalid_arg "Fault_map.add_cell: cell outside the regular grid";
  if not t.overflowed then begin
    let key = (row * Org.cols t.org) + col in
    if Bytes.get t.seen key = '\000' then
      if t.count >= t.bound then t.overflowed <- true
      else begin
        Bytes.set t.seen key '\001';
        t.keys <- key :: t.keys;
        t.count <- t.count + 1
      end
  end

let failure_cells ~fast org (f : Engine.failure) =
  let row = Org.row_of_addr org f.Engine.addr
  and col = Org.col_of_addr org f.Engine.addr in
  if fast then begin
    (* Comparator analog: one packed XOR, then one step per set bit. *)
    let x = ref (Word.to_int f.Engine.expected lxor Word.to_int f.Engine.got) in
    let acc = ref [] in
    while !x <> 0 do
      let low = !x land - !x in
      let bit =
        let rec idx b n = if b = 1 then n else idx (b lsr 1) (n + 1) in
        idx low 0
      in
      acc := (row, Org.cell_col org ~col ~bit) :: !acc;
      x := !x lxor low
    done;
    List.rev !acc
  end
  else begin
    let acc = ref [] in
    for bit = Word.width f.Engine.expected - 1 downto 0 do
      if Word.get f.Engine.expected bit <> Word.get f.Engine.got bit then
        acc := (row, Org.cell_col org ~col ~bit) :: !acc
    done;
    !acc
  end

let overflowed t = t.overflowed

(* a key orders cells as (row, col) does *)
let cells t =
  let cols = Org.cols t.org in
  List.map (fun key -> (key / cols, key mod cols)) (List.sort Int.compare t.keys)
