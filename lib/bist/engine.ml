module Model = Bisram_sram.Model
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Obs = Bisram_obs.Obs

type failure = {
  background : Word.t;
  item : int;
  op : int;
  addr : int;
  expected : Word.t;
  got : Word.t;
}

exception Stop

type ram = {
  words : int;
  read : int -> Word.t;
  write : int -> Word.t -> unit;
  retention_wait : unit -> unit;
}

let ram_of_model model =
  { words = (Model.org model).Org.words
  ; read = Model.read_word model
  ; write = Model.write_word model
  ; retention_wait = (fun () -> Model.retention_wait model)
  }

(* What the march loop drives: the RAM as packed-int word accesses of
   a fixed width.  A model is driven directly through its int API (no
   word allocated per read); an abstract [ram] is adapted per access. *)
type port = {
  p_words : int;
  p_width : int;
  p_read : int -> int;
  p_write : int -> int -> unit;
  p_wait : unit -> unit;
  p_model : Model.t option; (* unarmed-slot spans ({!Model.march_span}) *)
}

let port_of_model model =
  { p_words = (Model.org model).Org.words
  ; p_width = (Model.org model).Org.bpw
  ; p_read = Model.read_int model
  ; p_write = Model.write_int model
  ; p_wait = (fun () -> Model.retention_wait model)
  ; p_model = Some model
  }

let port_of_ram ram ~width =
  { p_model = None
  ; p_words = ram.words
  ; p_width = width
  ; p_read =
      (fun a ->
        let w = ram.read a in
        if Word.width w <> width then invalid_arg "Engine: word width mismatch";
        Word.to_int w)
  ; p_write = (fun a v -> ram.write a (Word.of_int ~width v))
  ; p_wait = ram.retention_wait
  }

(* One element's ops at [addr], per op: at an odd address every op word
   is [lxor alt]. *)
let apply_ops port ~alt ~is_write ~op_word ~fail addr =
  let m = alt land -(addr land 1) in
  for op = 0 to Array.length is_write - 1 do
    let w = Array.unsafe_get op_word op lxor m in
    if Array.unsafe_get is_write op then port.p_write addr w
    else begin
      let got = port.p_read addr in
      if w <> got then fail ~op ~addr ~expected:w ~got
    end
  done

(* Clean words in one span, the address that stops it per op, then the
   next span; a port without a model runs per op throughout. *)
let run_element ?alt port ~up ~is_write ~op_word ~fail =
  let altv = match alt with None -> 0 | Some m -> m in
  let stride = if up then 1 else -1 in
  let addr = ref (if up then 0 else port.p_words - 1) in
  let left = ref port.p_words in
  while !left > 0 do
    let k =
      match port.p_model with
      | None -> 0
      | Some model ->
          Model.march_span ?alt model ~up ~first:!addr ~count:!left ~is_write
            ~op_word
    in
    if k < !left then begin
      let a = !addr + (stride * k) in
      apply_ops port ~alt:altv ~is_write ~op_word ~fail a;
      addr := a + stride;
      left := !left - k - 1
    end
    else left := 0
  done

let run_general port test ~backgrounds ~stop_at_first =
  List.iter
    (fun bg ->
      if Word.width bg <> port.p_width then
        invalid_arg "Engine: background width mismatch")
    backgrounds;
  let word v = Word.of_int ~width:port.p_width v in
  let failures = ref [] in
  (* the background and item the element in flight belongs to, read
     by the one failure callback of the run *)
  let cur_bg = ref (Word.zero port.p_width) and cur_item = ref 0 in
  let fail ~op ~addr ~expected ~got =
    failures :=
      { background = !cur_bg
      ; item = !cur_item
      ; op
      ; addr
      ; expected = word expected
      ; got = word got
      }
      :: !failures;
    if stop_at_first then raise Stop
  in
  (try
     List.iteri
       (fun bg_idx bg ->
         cur_bg := bg;
         let bg_v = Word.to_int bg and bg_c = Word.to_int (Word.lnot_ bg) in
         List.iteri
           (fun item_idx item ->
             cur_item := item_idx;
             match item with
             | March.Wait ->
                 if Obs.enabled () then begin
                   Obs.incr "engine.waits";
                   Obs.span ~cat:"bist"
                     (Printf.sprintf "%s.bg%d.wait%d" test.March.name bg_idx
                        item_idx)
                     port.p_wait
                 end
                 else port.p_wait ()
             | March.Elem { order; ops } ->
                 (* per-element op table, resolved against the current
                    background once: the address loop walks a flat array
                    of packed words and compares ints, so it allocates
                    nothing per address *)
                 let n_ops = List.length ops in
                 let is_write = Array.make n_ops false in
                 let op_word = Array.make n_ops bg_v in
                 List.iteri
                   (fun i op ->
                     match op with
                     | March.W compl ->
                         is_write.(i) <- true;
                         if compl then op_word.(i) <- bg_c
                     | March.R compl -> if compl then op_word.(i) <- bg_c)
                   ops;
                 let up = order <> March.Down in
                 (* per-element telemetry: one enabled check per march
                    element keeps the per-op loop untouched when off *)
                 if Obs.enabled () then begin
                   Obs.incr "engine.elements";
                   Obs.add "engine.ops" (n_ops * port.p_words);
                   Obs.span ~cat:"bist"
                     (Printf.sprintf "%s.bg%d.elem%d" test.March.name bg_idx
                        item_idx)
                     (fun () -> run_element port ~up ~is_write ~op_word ~fail)
                 end
                 else run_element port ~up ~is_write ~op_word ~fail)
           test.March.items)
       backgrounds
   with Stop -> ());
  List.rev !failures

let run_ram ram test ~backgrounds =
  (* the width every background must share; a RAM returning another
     width is caught on its first read *)
  let width = match backgrounds with [] -> 0 | bg :: _ -> Word.width bg in
  run_general (port_of_ram ram ~width) test ~backgrounds ~stop_at_first:false

let run model test ~backgrounds =
  Model.clear model;
  run_general (port_of_model model) test ~backgrounds ~stop_at_first:false

let passes model test ~backgrounds =
  Model.clear model;
  run_general (port_of_model model) test ~backgrounds ~stop_at_first:true = []

let failing_rows org failures =
  let seen = Bytes.make (Org.total_rows org) '\000' in
  List.filter_map
    (fun f ->
      let row = Org.row_of_addr org f.addr in
      if Bytes.get seen row <> '\000' then None
      else begin
        Bytes.set seen row '\001';
        Some row
      end)
    failures

let op_count test org ~backgrounds =
  March.ops_per_address test * org.Org.words * backgrounds
