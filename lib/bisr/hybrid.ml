module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine
module F = Bisram_faults.Fault

type t = { org : Org.t; word_registers : int }

let create org ~word_registers =
  if word_registers < 0 then invalid_arg "Hybrid.create";
  { org; word_registers }

type plan = { row_assignments : int list; word_assignments : int list }

let group_by_row t faulty_words =
  let per_row = Hashtbl.create 16 in
  List.iter
    (fun addr ->
      let row = Org.row_of_addr t.org addr in
      Hashtbl.replace per_row row
        (addr
        :: (match Hashtbl.find_opt per_row row with Some l -> l | None -> [])))
    (List.sort_uniq Int.compare faulty_words);
  per_row

let plan t ~faulty_words =
  let per_row = group_by_row t faulty_words in
  (* rank rows by damage; the worst rows take the spare rows *)
  let rows =
    Hashtbl.fold (fun row words acc -> (row, List.length words, words) :: acc)
      per_row []
    |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare b a)
  in
  let spare_rows = t.org.Org.spares in
  let to_rows, to_words =
    let rec split i = function
      | [] -> ([], [])
      | (row, _, words) :: rest ->
          let r, w = split (i + 1) rest in
          if i < spare_rows then (row :: r, w) else (r, words @ w)
    in
    split 0 rows
  in
  if List.length to_words <= t.word_registers then
    Some
      { row_assignments = List.sort Int.compare to_rows
      ; word_assignments = List.sort Int.compare to_words
      }
  else begin
    (* greedy alternative: prefer registers for single-fault rows even
       when spare rows remain — already covered, since single-fault rows
       rank last; if it does not fit above, no assignment fits: spare
       rows always remove at least as many leftover words as registers
       could *)
    None
  end

let victim_words t faults =
  List.filter_map
    (fun f ->
      let c = F.victim f in
      if c.F.row < Org.rows t.org then
        Some (Org.addr_of t.org ~row:c.F.row ~col:(c.F.col mod t.org.Org.bpc))
      else None)
    faults
  |> List.sort_uniq Int.compare

let spares_clean t faults =
  List.for_all
    (fun f -> (F.victim f).F.row < Org.rows t.org)
    faults

let repairable t faults =
  spares_clean t faults
  && plan t ~faulty_words:(victim_words t faults) <> None

let repair t model test ~backgrounds =
  assert (Model.org model = t.org);
  Model.clear model;
  let failures = Engine.run_ram (Engine.ram_of_model model) test ~backgrounds in
  let faulty_words =
    List.sort_uniq Int.compare (List.map (fun f -> f.Engine.addr) failures)
  in
  if faulty_words = [] then `Passed_clean
  else begin
    match plan t ~faulty_words with
    | None -> `Unsuccessful
    | Some p ->
        (* rows through the model's remap; words through a wrapper *)
        let regular = Org.rows t.org in
        let row_map = Hashtbl.create 8 in
        List.iteri
          (fun i row -> Hashtbl.add row_map row (regular + i))
          p.row_assignments;
        Model.set_remap model
          (Some
             (fun row ->
               match Hashtbl.find_opt row_map row with
               | Some phys -> phys
               | None -> row));
        let registers = Hashtbl.create 8 in
        List.iter
          (fun addr ->
            Hashtbl.add registers addr (ref (Word.zero t.org.Org.bpw)))
          p.word_assignments;
        let base = Engine.ram_of_model model in
        let ram =
          { base with
            Engine.read =
              (fun addr ->
                match Hashtbl.find_opt registers addr with
                | Some cell -> !cell
                | None -> base.Engine.read addr)
          ; write =
              (fun addr w ->
                match Hashtbl.find_opt registers addr with
                | Some cell -> cell := w
                | None -> base.Engine.write addr w)
          }
        in
        Model.clear model;
        if Engine.run_ram ram test ~backgrounds = [] then `Repaired p
        else `Unsuccessful
  end

let delay_penalty p ~org ~word_registers =
  (* the word-register CAM matches in parallel with the row TLB; its
     match line carries the full word address (log2 words bits instead
     of log2 rows), and the total is max of the two matches plus the
     shared encode/drive path.  With no registers there is no word CAM,
     only the row TLB. *)
  let row = Tlb_timing.delay p ~org in
  if word_registers = 0 then Tlb_timing.total row
  else
    let log2i n =
      let rec go acc k = if k <= 1 then acc else go (acc + 1) (k / 2) in
      go 0 n
    in
    let row_bits = max 1 (log2i (Org.rows org)) in
    let word_bits = max 1 (log2i org.Org.words) in
    let word_match =
      row.Tlb_timing.match_line *. float_of_int word_bits
      /. float_of_int row_bits
    in
    Tlb_timing.total row -. row.Tlb_timing.match_line
    +. max row.Tlb_timing.match_line word_match
