module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine
module F = Bisram_faults.Fault

type t = {
  org : Org.t;
  mutable fail_addr : int option;
  mutable spare : Word.t; (* one spare word *)
}

let create org = { org; fail_addr = None; spare = Word.zero org.Org.bpw }

let record t ~addr =
  match t.fail_addr with
  | None ->
      t.fail_addr <- Some addr;
      `Ok
  | Some a when a = addr -> `Ok
  | Some _ -> `Full

let registered t = t.fail_addr

(* Word-level diversion around a model. *)
let diverted_ram t model =
  let base = Engine.ram_of_model model in
  { base with
    Engine.read =
      (fun addr ->
        if t.fail_addr = Some addr then t.spare else base.Engine.read addr)
  ; write =
      (fun addr w ->
        if t.fail_addr = Some addr then t.spare <- w
        else base.Engine.write addr w)
  }

let repair model test ~backgrounds =
  let t = create (Model.org model) in
  Model.clear model;
  let failures =
    Engine.run_ram (Engine.ram_of_model model) test ~backgrounds
  in
  let addrs =
    List.sort_uniq Int.compare
      (List.map (fun f -> f.Engine.addr) failures)
  in
  match addrs with
  | [] -> `Passed_clean
  | [ addr ] -> (
      (match record t ~addr with `Ok -> () | `Full -> assert false);
      (* verify pass through the diversion *)
      Model.clear model;
      t.spare <- Word.zero t.org.Org.bpw;
      match Engine.run_ram (diverted_ram t model) test ~backgrounds with
      | [] -> `Repaired addr
      | _ :: _ -> `Unsuccessful)
  | _ :: _ :: _ -> `Unsuccessful

let repairable org faults =
  let words = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let c = F.victim f in
      if c.F.row < Org.rows org then
        Hashtbl.replace words
          (Org.addr_of org ~row:c.F.row ~col:(c.F.col mod org.Org.bpc))
          ())
    faults;
  Hashtbl.length words <= 1
