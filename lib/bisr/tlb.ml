type entry = { logical_row : int; spare : int }

type t = {
  spares : int;
  regular_rows : int;
  mutable entries : entry list; (* newest first *)
  mutable next_spare : int;
  (* The CAM's answer per logical row: the newest spare serving it, or
     -1 when unmapped.  Kept by [alloc] and [clear], so a lookup is an
     array read. *)
  spare_at : int array;
}

let create ~spares ~regular_rows =
  if spares < 0 then invalid_arg "Tlb.create: negative spares";
  if regular_rows <= 0 then invalid_arg "Tlb.create: regular_rows";
  { spares; regular_rows; entries = []; next_spare = 0
  ; spare_at = Array.make regular_rows (-1) }

let entries t = t.next_spare
let is_full t = t.next_spare >= t.spares

(* newest spare serving [row], -1 when none (rows outside the regular
   range are never mapped) *)
let lookup t row =
  if row < 0 || row >= t.regular_rows then -1 else t.spare_at.(row)

let spare_of t ~row =
  match lookup t row with -1 -> None | s -> Some s

let mapped_rows t =
  (* allocation order = spare order; keep only the newest entry per row *)
  List.fold_left
    (fun acc e ->
      if t.spare_at.(e.logical_row) = e.spare then e.logical_row :: acc
      else acc)
    [] t.entries

let alloc t row =
  if is_full t then `Full
  else begin
    t.entries <- { logical_row = row; spare = t.next_spare } :: t.entries;
    t.spare_at.(row) <- t.next_spare;
    t.next_spare <- t.next_spare + 1;
    `Ok
  end

let record t ~row =
  if row < 0 || row >= t.regular_rows then invalid_arg "Tlb.record: bad row";
  if t.spare_at.(row) >= 0 then `Ok else alloc t row

let would_overflow t ~row = lookup t row < 0 && is_full t

let remap t ~row =
  match lookup t row with -1 -> row | s -> t.regular_rows + s

let remap_spare t ~row =
  if lookup t row < 0 then invalid_arg "Tlb.remap_spare: row not mapped"
  else alloc t row

let allocation_is_strictly_increasing t =
  (* entries are newest-first, so spare indices must strictly decrease *)
  let rec check = function
    | a :: (b :: _ as rest) -> a.spare > b.spare && check rest
    | [ _ ] | [] -> true
  in
  check t.entries

let clear t =
  List.iter (fun e -> t.spare_at.(e.logical_row) <- -1) t.entries;
  t.entries <- [];
  t.next_spare <- 0
