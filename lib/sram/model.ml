module F = Bisram_faults.Fault

type agg_effect =
  | Invert of int (* victim idx *)
  | Force of { rising : bool; victim : int; forces : bool }

(* Column steering (2D BIRA), tabulated once by [set_col_remap]: bit [b]
   of [st_mask.(col)] marks an I/O whose column at mux position [col] is
   steered away from itself; [st_spare.(col)] is the mask of the spare
   columns those I/Os land on, or -1 unless each lands on a spare column
   of its own; and [st_pairs] holds, per mux position from
   [st_off.(col)] to [st_off.(col + 1)], I/O 0 first, each steered I/O
   and its target [k] (physical column [cols + k], so a negative [k] is
   a regular column). *)
type steering = {
  st_mask : int array;
  st_spare : int array;
  st_off : int array;
  st_pairs : int array;
}

type t = {
  org : Org.t;
  nrows : int;
  cols : int; (* regular physical columns: bpw * bpc *)
  (* Row stride of the cell index: cols + spare_cols.  Cells at offsets
     cols .. tcols-1 within a row are the spare columns; they are
     reachable only through an armed column remap (and by fault
     arming). *)
  tcols : int;
  bpc : int;
  bpw : int;
  (* Decode tables (see [decode_of]), so no access divides. *)
  addr_row : int array;
  cell_row : int array;
  col_bit : int array;
  (* The cell store: one int per (row, col-mux) word, bit [b] of slot
     [row * bpc + col] = cell (row, b*bpc + col), and one int per row
     for its spare columns, bit [k] = cell (row, cols + k). *)
  packed : int array;
  spare : int array;
  mutable fault_list : F.t list;
  (* The fault table, filled by [set_faults]: [row_masks.(row)] is
     [[||]] on a row with no fault machinery and, on a fault-armed row
     (fault site, coupling aggressor or victim), one block of [blk] ints
     per word slot, then one for the row's spare word.  A block's ints
     are a summary (the OR of the rest: a slot is armed when it is
     non-zero) and one mask per kind, [k_open] .. [k_aggressor], bit [b]
     marking I/O [b]'s cell (spare column [b] in the spare word).  The
     coupling relations themselves are the two lists, newest fault
     first: (victim, aggressor, trigger state, reads_as) and (aggressor,
     effect).  A trial arms a handful of faults, so a flagged cell scans
     them; every other cell never looks. *)
  row_masks : int array array;
  mutable state_cpl : (int * int * bool * bool) list;
  mutable agg_effects : (int * agg_effect) list;
  (* Per-I/O sense-amp residue, packed: bit [io] is the last value
     sensed on I/O [io] (what a stuck-open cell there reads back). *)
  mutable residue : int;
  (* The row remap (the TLB's output), tabulated by [set_remap]:
     [row_map.(r)] is the physical row logical row [r] resolves to while
     [row_mapped] holds; otherwise every row is itself.  The table is
     allocated on a model's first remap and unvalidated: an access
     range-checks the row it reads from it. *)
  mutable row_map : int array;
  mutable row_mapped : bool;
  (* Column steering: [None] is the identity map.  Only a slot whose
     mux position has a non-zero steer mask resolves its steered bits
     elsewhere; every other slot keeps its access path (see [write_at]). *)
  mutable steering : steering option;
  mutable n_reads : int;
  mutable n_writes : int;
  (* Access-path telemetry: how many of the reads/writes the packed
     path served on rows without armed machinery ([n_fast_*]) and on
     fault-armed rows ([n_armed_packed]), plus the rows [clear] zeroed.
     Plain unconditional increments adjacent to the ones above — cheaper
     than any enabled-check would be. *)
  mutable n_fast_reads : int;
  mutable n_fast_writes : int;
  mutable n_armed_packed : int;
  mutable n_rows_cleared : int;
  (* [row_written] marks rows whose data may differ from the power-up
     zeros. *)
  row_written : Bytes.t;
  mutable fast : bool; (* test seam: disable to force the legacy path *)
  (* Lazy clean rows (see [lz_mark]): [lz_phys] marks, per physical
     row, a row that stores no words but holds the march's image, and
     [lz_run], per logical row [r], the lazy runs from [r] upward (byte
     [2r]) and downward ([2r + 1]), 0 on an eager row and capped at
     255, so a span skips a run in one step.  [lz_lo] is the first
     address of the lowest lazy logical row and [lz_hi] one past the
     highest's last.  Both tables are zero while no row is lazy. *)
  lz_phys : Bytes.t;
  lz_run : Bytes.t;
  mutable lz_on : bool;
  mutable lz_intact : bool; (* every eligible row is lazy *)
  mutable lz_lo : int;
  mutable lz_hi : int;
  (* The image a lazy row holds until the element in flight reaches
     it: its even- and odd-column words and whether an element since
     [clear] wrote it. *)
  mutable img_even : int;
  mutable img_odd : int;
  mutable img_w : bool;
  (* The element in flight: its direction, the word its reads before a
     write expect and its final write (-1 for none), its parity mask,
     the next address it processes, and whether its last span stopped
     there (on an eager row, which the caller then runs per op).  A
     lazy row it has passed holds its final write instead of the
     image. *)
  mutable el_on : bool;
  mutable el_up : bool;
  mutable el_pre : int;
  mutable el_final : int;
  mutable el_alt : int;
  mutable el_next : int;
  mutable el_stop : bool;
}

let org t = t.org

(* Address -> logical row, cell index -> row, and regular physical
   column -> I/O bit; the column-mux position is then a multiply away
   ([a - row*bpc] for an address, [c - bit*bpc] for a column).  The
   tables depend on the organization alone and are never written, so
   the models a domain creates share the tables of the last
   organization it built them for (a trial arms several models of one
   organization). *)
type decode = {
  d_org : Org.t;
  d_addr_row : int array;
  d_cell_row : int array;
  d_col_bit : int array;
}

let decode_key : decode option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let decode_of org =
  match Domain.DLS.get decode_key with
  | Some d when d.d_org == org || Org.equal d.d_org org -> d
  | _ ->
      (* [rowmajor n stride].(i) = i / stride *)
      let rowmajor n stride =
        let a = Array.make (n * stride) 0 in
        for r = 0 to n - 1 do
          Array.fill a (r * stride) stride r
        done;
        a
      in
      let d =
        { d_org = org
        ; d_addr_row = rowmajor (Org.rows org) org.Org.bpc
        ; d_cell_row = rowmajor (Org.total_rows org) (Org.total_cols org)
        ; d_col_bit = rowmajor org.Org.bpw org.Org.bpc
        }
      in
      Domain.DLS.set decode_key (Some d);
      d

let create org =
  if not (Org.simulable org) then
    invalid_arg
      (Printf.sprintf
         "Model.create: bpw %d exceeds the packed simulator's %d-bit words \
          (layout-only flows accept it; simulation does not)"
         org.Org.bpw Word.max_width);
  let nrows = Org.total_rows org in
  let cols = Org.cols org in
  let tcols = Org.total_cols org in
  let d = decode_of org in
  { org
  ; nrows
  ; cols
  ; tcols
  ; bpc = org.Org.bpc
  ; bpw = org.Org.bpw
  ; addr_row = d.d_addr_row
  ; cell_row = d.d_cell_row
  ; col_bit = d.d_col_bit
  ; packed = Array.make (nrows * org.Org.bpc) 0
  ; spare = Array.make nrows 0
  ; fault_list = []
  ; row_masks = Array.make nrows [||]
  ; state_cpl = []
  ; agg_effects = []
  ; residue = 0
  ; row_map = [||]
  ; row_mapped = false
  ; steering = None
  ; n_reads = 0
  ; n_writes = 0
  ; n_fast_reads = 0
  ; n_fast_writes = 0
  ; n_armed_packed = 0
  ; n_rows_cleared = 0
  ; row_written = Bytes.make nrows '\000'
  ; fast = true
  ; lz_phys = Bytes.make nrows '\000'
  ; lz_run = Bytes.make (2 * Org.rows org) '\000'
  ; lz_on = false
  ; lz_intact = false
  ; lz_lo = 0
  ; lz_hi = 0
  ; img_even = 0
  ; img_odd = 0
  ; img_w = false
  ; el_on = false
  ; el_up = true
  ; el_pre = -1
  ; el_final = -1
  ; el_alt = 0
  ; el_next = 0
  ; el_stop = false
  }

let idx t (c : F.cell) =
  if c.F.row < 0 || c.F.row >= t.nrows then
    invalid_arg "Model: fault row out of range";
  if c.F.col < 0 || c.F.col >= t.tcols then
    invalid_arg "Model: fault col out of range";
  (c.F.row * t.tcols) + c.F.col

(* A fault-table block ([row_masks]): the summary at offset 0, then one
   mask per fault kind. *)
let blk = 7
let k_open = 1
let k_no_rise = 2
let k_no_fall = 3
let k_pinned = 4 (* stuck-at *)
let k_victim = 5 (* state-coupling victim *)
let k_aggressor = 6 (* inversion or idempotent coupling aggressor *)

(* Row-relative column [c]'s block offset in its row's masks and its bit
   there: its word slot's, or the spare word's. *)
let[@inline] block_of t c =
  if c < t.cols then blk * (c - (t.col_bit.(c) * t.bpc)) else blk * t.bpc

let[@inline] bit_of t c = if c < t.cols then t.col_bit.(c) else c - t.cols

(* Cell [i]'s fault kinds: bit [k] set for each kind [k] it carries. *)
let flag t i =
  let row = t.cell_row.(i) in
  let ms = Array.unsafe_get t.row_masks row in
  if Array.length ms = 0 then 0
  else begin
    let c = i - (row * t.tcols) in
    let b = block_of t c and bit = bit_of t c in
    let f = ref 0 in
    for k = 1 to blk - 1 do
      f := !f lor (((Array.unsafe_get ms (b + k) lsr bit) land 1) lsl k)
    done;
    !f
  end

let has f k = (f lsr k) land 1 = 1
let row_is_faulty t row = Array.length (Array.unsafe_get t.row_masks row) > 0

(* Mask [k] of the slot at mux position [col] (the spare word at
   [bpc]) on a fault-armed row with masks [ms]; 0 is the summary.  The
   annotation keeps the load an int load: a polymorphic [ms] would make
   every inlined copy a generic array access that tests for floats. *)
let[@inline] mask (ms : int array) col k =
  Array.unsafe_get ms ((blk * col) + k)

let arm_row t row =
  if not (row_is_faulty t row) then
    t.row_masks.(row) <- Array.make (blk * (t.bpc + 1)) 0

(* Mark cell [c] with fault kind [k] in its row's masks. *)
let arm t (c : F.cell) k =
  arm_row t c.F.row;
  let ms = t.row_masks.(c.F.row) in
  let b = block_of t c.F.col and bit = 1 lsl bit_of t c.F.col in
  ms.(b) <- ms.(b) lor bit;
  ms.(b + k) <- ms.(b + k) lor bit

let mark_row_written t row = Bytes.unsafe_set t.row_written row '\001'

let physical_row t row =
  if t.row_mapped then Array.unsafe_get t.row_map row else row

(* ------------------------------------------------------------------ *)
(* Lazy clean rows.  A lazy row reached by logical row [lr] holds the
   element in flight's final write (its parity mask on the odd columns)
   once the element has passed [lr], and the image otherwise; it counts
   as written when the word it holds was.  Any access the span kernel
   does not account for writes every lazy row out first ([lz_write_out])
   and ends laziness until the next [clear]. *)

let[@inline] is_lazy t row = Bytes.unsafe_get t.lz_phys row <> '\000'
let[@inline] lz_run t i = Char.code (Bytes.unsafe_get t.lz_run i)
let lz_rows t = Bytes.length t.lz_run lsr 1

(* Has the element in flight passed logical row [lr]? *)
let lz_reached t lr =
  t.el_on
  && if t.el_up then (lr + 1) * t.bpc <= t.el_next else lr * t.bpc > t.el_next

(* Store words [even] and [odd] in physical row [row]'s slots by column
   parity, and mark it written if [w]. *)
let lz_fill t row ~even ~odd ~w =
  let base = row * t.bpc in
  for col = 0 to t.bpc - 1 do
    Array.unsafe_set t.packed (base + col) (if col land 1 = 0 then even else odd)
  done;
  if w then mark_row_written t row

let lz_off t =
  t.lz_on <- false;
  t.lz_intact <- false;
  t.el_on <- false;
  Bytes.fill t.lz_phys 0 t.nrows '\000';
  Bytes.fill t.lz_run 0 (Bytes.length t.lz_run) '\000'

(* Every lazy row's words and written mark, stored as the eager path
   would have left them; laziness ends. *)
let lz_write_out t =
  if t.lz_on then begin
    let fin = t.el_final in
    for lr = 0 to lz_rows t - 1 do
      if lz_run t (2 * lr) > 0 then
        let row = physical_row t lr in
        if fin >= 0 && lz_reached t lr then
          lz_fill t row ~even:fin ~odd:(fin lxor t.el_alt) ~w:true
        else lz_fill t row ~even:t.img_even ~odd:t.img_odd ~w:t.img_w
    done;
    lz_off t
  end

(* The lazy rows the eager path would have marked written. *)
let lz_written_rows t =
  let n = ref 0 in
  for lr = 0 to lz_rows t - 1 do
    if
      lz_run t (2 * lr) > 0
      && (t.img_w || (t.el_final >= 0 && lz_reached t lr))
    then incr n
  done;
  !n

(* Between elements: an element in flight that has passed every lazy
   row leaves its final write as the image; one that has not is written
   out. *)
let lz_settle t =
  if t.lz_on && t.el_on then
    if if t.el_up then t.el_next >= t.lz_hi else t.el_next < t.lz_lo then begin
      if t.el_final >= 0 then begin
        t.img_even <- t.el_final;
        t.img_odd <- t.el_final lxor t.el_alt;
        t.img_w <- true
      end;
      t.el_on <- false
    end
    else lz_write_out t

(* The run tables and address bounds of the rows [lz_phys] marks. *)
let lz_tabulate t =
  let rows = lz_rows t and run = t.lz_run in
  let lo = ref (-1) and hi = ref (-1) in
  for lr = 0 to rows - 1 do
    let row = physical_row t lr in
    let d =
      if row < 0 || row >= t.nrows || not (is_lazy t row) then 0
      else if lr = 0 then 1
      else Int.min 255 (1 + lz_run t ((2 * lr) - 1))
    in
    Bytes.unsafe_set run ((2 * lr) + 1) (Char.unsafe_chr d);
    if d > 0 then begin
      if !lo < 0 then lo := lr;
      hi := lr
    end
  done;
  for lr = rows - 1 downto 0 do
    let u =
      if lz_run t ((2 * lr) + 1) = 0 then 0
      else if lr = rows - 1 then 1
      else Int.min 255 (1 + lz_run t ((2 * lr) + 2))
    in
    Bytes.unsafe_set run (2 * lr) (Char.unsafe_chr u)
  done;
  t.lz_on <- !lo >= 0;
  t.lz_lo <- !lo * t.bpc;
  t.lz_hi <- (!hi + 1) * t.bpc

(* Mark the lazy rows: an unarmed physical row that exactly one logical
   row reaches and that holds no state-coupling aggressor (whose victim
   reads its cells).  With [~keep] (a new row map between elements) a
   row stays lazy only if it was, and a lazy row the map no longer
   reaches exactly once is stored with the image.  Each [lz_phys] byte
   counts its row's logical rows in bits 0-1 (2 for two or more) and
   keeps its old mark in bit 2. *)
let lz_mark t ~keep =
  let ph = t.lz_phys in
  for row = 0 to t.nrows - 1 do
    Bytes.unsafe_set ph row (if keep && is_lazy t row then '\004' else '\000')
  done;
  let reach row n =
    let b = Char.code (Bytes.unsafe_get ph row) in
    Bytes.unsafe_set ph row
      (Char.unsafe_chr (b land 4 lor Int.min 2 ((b land 3) + n)))
  in
  for lr = 0 to lz_rows t - 1 do
    let row = physical_row t lr in
    if row >= 0 && row < t.nrows then reach row 1
  done;
  List.iter (fun (_, agg, _, _) -> reach t.cell_row.(agg) 2) t.state_cpl;
  t.lz_intact <- true;
  for row = 0 to t.nrows - 1 do
    let b = Char.code (Bytes.unsafe_get ph row) in
    let eligible = b land 3 = 1 && not (row_is_faulty t row) in
    let was = b land 4 <> 0 in
    if was && not eligible then
      lz_fill t row ~even:t.img_even ~odd:t.img_odd ~w:t.img_w;
    let lazy_row = eligible && (was || not keep) in
    if eligible && not lazy_row then t.lz_intact <- false;
    Bytes.unsafe_set ph row (if lazy_row then '\001' else '\000')
  done;
  lz_tabulate t

(* At [clear]: every eligible row lazy, unless the access path, a
   column map or an odd [bpc] rules laziness out. *)
let lz_rebuild t =
  if t.fast && Option.is_none t.steering && t.bpc land 1 = 0 then
    lz_mark t ~keep:false
  else begin
    lz_off t;
    t.lz_intact <- true
  end

(* Can the word slot at mux position [col] of a row with masks [ms] take
   the packed path: plain loads and stores of [packed], no per-cell
   machinery?  Only an armed slot leaves it, and only a fault-armed row
   has one. *)
let[@inline] fast_slot t ms col =
  t.fast && (Array.length ms = 0 || mask ms col 0 = 0)

let with_bit w bit v = if v then w lor (1 lsl bit) else w land lnot (1 lsl bit)

(* Cell-granular access used by the per-cell fault machinery: cell [i]
   is a bit of its word slot, or of its row's spare int. *)
let stored t i =
  let row = t.cell_row.(i) in
  if is_lazy t row then lz_write_out t;
  let c = i - (row * t.tcols) in
  if c < t.cols then
    let bit = Array.unsafe_get t.col_bit c in
    (Array.unsafe_get t.packed ((row * t.bpc) + c - (bit * t.bpc)) lsr bit)
    land 1
    = 1
  else (Array.unsafe_get t.spare row lsr (c - t.cols)) land 1 = 1

let store t i v =
  let row = t.cell_row.(i) in
  if is_lazy t row then lz_write_out t;
  let c = i - (row * t.tcols) in
  if c < t.cols then begin
    let bit = Array.unsafe_get t.col_bit c in
    let slot = (row * t.bpc) + c - (bit * t.bpc) in
    Array.unsafe_set t.packed slot
      (with_bit (Array.unsafe_get t.packed slot) bit v)
  end
  else
    Array.unsafe_set t.spare row
      (with_bit (Array.unsafe_get t.spare row) (c - t.cols) v)

let set_fast_path t on =
  if on <> t.fast then begin
    lz_write_out t;
    t.lz_intact <- false;
    t.fast <- on
  end

let clear t =
  (* power-up fill, dirty rows only: a row holds non-zero data only if
     it was written (or force-stored / decayed, which is confined to
     fault-armed rows) since the previous clear.  A lazy row stores
     nothing: it is only counted, when the eager path would have
     written it. *)
  if t.lz_on then
    t.n_rows_cleared <- t.n_rows_cleared + lz_written_rows t;
  for row = 0 to t.nrows - 1 do
    if
      Bytes.unsafe_get t.row_written row <> '\000' || row_is_faulty t row
    then begin
      Array.fill t.packed (row * t.bpc) t.bpc 0;
      Array.unsafe_set t.spare row 0;
      Bytes.unsafe_set t.row_written row '\000';
      t.n_rows_cleared <- t.n_rows_cleared + 1
    end
  done;
  t.img_even <- 0;
  t.img_odd <- 0;
  t.img_w <- false;
  t.el_on <- false;
  if not t.lz_intact then lz_rebuild t;
  (* re-assert pinned cells: the last Stuck_at on a cell wins *)
  List.iter
    (fun f -> match f with F.Stuck_at (c, v) -> store t (idx t c) v | _ -> ())
    t.fault_list;
  t.residue <- 0

let set_faults t faults =
  (* refuse a bad list before the old configuration goes *)
  List.iter (fun f -> List.iter (fun c -> ignore (idx t c)) (F.cells f)) faults;
  lz_write_out t;
  t.lz_intact <- false;
  (* tear down the previous fault machinery, armed rows only *)
  for row = 0 to t.nrows - 1 do
    if row_is_faulty t row then begin
      (* the row may hold non-zero cells planted by the old config
         without [row_written] being set (pin re-assertion in [clear],
         retention decay, coupling force-stores), so flag it written:
         once its masks go, only that flag makes the final [clear]
         restore the power-up zeros *)
      mark_row_written t row;
      t.row_masks.(row) <- [||]
    end
  done;
  t.fault_list <- faults;
  t.state_cpl <- [];
  t.agg_effects <- [];
  List.iter
    (fun f ->
      match f with
      | F.Stuck_at (c, _) ->
          (* [clear] stores the stuck value *)
          arm t c k_pinned
      | F.Transition (c, up) -> arm t c (if up then k_no_rise else k_no_fall)
      | F.Stuck_open c -> arm t c k_open
      | F.Data_retention (c, _) ->
          (* decay walks the fault list ([retention_wait]) *)
          arm_row t c.F.row
      | F.Coupling_inversion { aggressor; victim } ->
          arm t aggressor k_aggressor;
          arm_row t victim.F.row;
          t.agg_effects <-
            (idx t aggressor, Invert (idx t victim)) :: t.agg_effects
      | F.Coupling_idempotent { aggressor; rising; victim; forces } ->
          arm t aggressor k_aggressor;
          arm_row t victim.F.row;
          t.agg_effects <-
            (idx t aggressor, Force { rising; victim = idx t victim; forces })
            :: t.agg_effects
      | F.State_coupling { aggressor; when_state; victim; reads_as } ->
          (* only the victim's reads are special; plain writes to the
             aggressor stay on the fast path because the victim re-reads
             the aggressor's stored state on every access *)
          arm t victim k_victim;
          t.state_cpl <-
            (idx t victim, idx t aggressor, when_state, reads_as)
            :: t.state_cpl)
    faults;
  clear t

(* Tabulated once per install, so no access calls [f].  Every installer
   either never changes its map after install (2D BIRA's pairs, the
   hybrid's table) or installs it again after each change: the row TLB
   learns only in the controller's first pass, with no remap armed,
   and in [Repair.iterate]'s learn step, which its arm step always
   follows. *)
(* After a new row map: the lazy rows it still reaches exactly once
   stay lazy. *)
let remapped t = if t.lz_on then lz_mark t ~keep:true else t.lz_intact <- false

let set_remap t f =
  match f with
  | None when not t.row_mapped -> () (* identity stays identity *)
  | None ->
      lz_settle t;
      t.row_mapped <- false;
      remapped t
  | Some f -> (
      lz_settle t;
      t.row_mapped <- false;
      let n = Org.rows t.org in
      if Array.length t.row_map <> n then t.row_map <- Array.make n 0;
      match
        for r = 0 to n - 1 do
          Array.unsafe_set t.row_map r (f r)
        done
      with
      | () ->
          t.row_mapped <- true;
          remapped t
      | exception e ->
          remapped t;
          raise e)

(* A column map ends laziness, and [clear] looks again once it goes. *)
let set_col_remap t f =
  match f with
  | None ->
      if Option.is_some t.steering then t.lz_intact <- false;
      t.steering <- None
  | Some g ->
      (* validate and tabulate the whole map up front, so the hot path
         neither checks nor calls [g]: a first pass over the columns
         validates and finds the steered I/Os, a second lists their
         pairs *)
      let st_mask = Array.make t.bpc 0 and n = ref 0 in
      for c = 0 to t.cols - 1 do
        let q = g c in
        if q < 0 || q >= t.tcols then
          invalid_arg "Model.set_col_remap: mapped column out of range";
        if q <> c then begin
          let bit = t.col_bit.(c) in
          let col = c - (bit * t.bpc) in
          st_mask.(col) <- st_mask.(col) lor (1 lsl bit);
          incr n
        end
      done;
      (* a map that steers nothing arms nothing *)
      if !n = 0 then begin
        if Option.is_some t.steering then t.lz_intact <- false;
        t.steering <- None
      end
      else begin
        lz_write_out t;
        t.lz_intact <- false;
        let st_spare = Array.make t.bpc 0
        and st_off = Array.make (t.bpc + 1) 0
        and st_pairs = Array.make (2 * !n) 0 in
        let j = ref 0 in
        for col = 0 to t.bpc - 1 do
          st_off.(col) <- !j;
          for bit = 0 to t.bpw - 1 do
            if (st_mask.(col) lsr bit) land 1 = 1 then begin
              let k = g ((bit * t.bpc) + col) - t.cols in
              let spare = st_spare.(col) in
              st_spare.(col) <-
                (if k < 0 || spare < 0 || (spare lsr k) land 1 = 1 then -1
                 else spare lor (1 lsl k));
              st_pairs.(!j) <- bit;
              st_pairs.(!j + 1) <- k;
              j := !j + 2
            end
          done
        done;
        st_off.(t.bpc) <- !j;
        t.steering <- Some { st_mask; st_spare; st_off; st_pairs }
      end

(* Coupling-driven store: respects pins (a stuck node cannot be flipped
   by crosstalk) but bypasses transition faults. *)
let force_store t i v = if not (has (flag t i) k_pinned) then store t i v

(* A successful state change on cell [i] fires its aggressor effects,
   newest fault first. *)
let fire_coupling t i ~old_v ~new_v =
  if old_v <> new_v then
    List.iter
      (fun (a, eff) ->
        if a = i then
          match eff with
          | Invert victim -> force_store t victim (not (stored t victim))
          | Force { rising; victim; forces } ->
              if rising = new_v then force_store t victim forces)
      t.agg_effects

(* An open cell is inaccessible and a pinned one stuck: a write to
   either has no effect. *)
let write_bit t i v =
  let f = flag t i in
  if not (has f k_open || has f k_pinned) then begin
    let old_v = stored t i in
    let blocked =
      (v && (not old_v) && has f k_no_rise)
      || ((not v) && old_v && has f k_no_fall)
    in
    if not blocked then begin
      store t i v;
      if has f k_aggressor then fire_coupling t i ~old_v ~new_v:v
    end
  end

(* A state-coupling victim's sensed value: of the entries for victim
   [i], newest fault first, the last whose aggressor holds its trigger
   state wins. *)
let rec sense_coupled t i v = function
  | [] -> v
  | (victim, agg, st, reads_as) :: rest ->
      sense_coupled t i
        (if victim = i && stored t agg = st then reads_as else v)
        rest

(* A stuck-open cell returns its I/O's sense residue.  Every word read
   then stores the word it returns as the new residue: each I/O keeps
   the bit it sensed, an open cell's being the residue itself. *)
let read_bit t ~io i =
  let f = flag t i in
  if has f k_open then (t.residue lsr io) land 1 = 1
  else if not (has f k_victim) then stored t i
  else sense_coupled t i (stored t i) t.state_cpl

(* A word access is fast when its slot is unarmed ([fast_slot]) and
   unsteered: no pin, transition or open fault to consult, no aggressor
   effect to fire and no state-coupled read to resolve.  Then it is one
   packed array load or store, whatever machinery sits elsewhere on its
   row (a coupling victim or a retention cell only changes on another
   access or a wait).  On an armed slot only the bits of the slot's
   read masks (open, victim) or write masks (open, pinned, no-rise,
   no-fall, aggressor) go through [read_bit]/[write_bit] (every bit,
   mask -1, with the fast path off); the others are plain bits of the
   packed word.  A steered slot (non-zero steer mask [s]) is plain
   ([steer_plain]) when each steered bit lands on a spare column of its
   own, its own slot's armed bits all lie in [s] (cells the map steers
   away, which no steered access touches) and the spare-column cells
   it lands on are unarmed: it is the packed word outside [s] plus
   those spare bits, gathered and scattered over the position's pairs,
   and nothing it touches can fire.  Any other steered slot resolves
   every bit through the column map.  Writes go bit by bit, I/O 0
   first, which keeps the legacy order of coupling side effects within
   a word: a masked aggressor may flip a later, unmasked bit before
   that bit is written.  Every read, on any path, leaves the word it
   returns as the sense residue. *)

(* Is the steered slot at mux position [col] (steer mask [s]) of a row
   with masks [ms] plain? *)
let[@inline] steer_plain t st ms col s =
  let spare = Array.unsafe_get st.st_spare col in
  t.fast && spare >= 0
  && (Array.length ms = 0
     || (mask ms col 0 land lnot s = 0 && mask ms t.bpc 0 land spare = 0))

(* The word the plain steered slot at mux position [col] (steer mask
   [s]) holds: its packed word outside [s], and inside it the bits of
   its row's spare word that its pairs name. *)
let read_plain t st ~row ~col s =
  let p = st.st_pairs and e = Array.unsafe_get st.st_off (col + 1) in
  let sw = Array.unsafe_get t.spare row in
  let v = ref (Array.unsafe_get t.packed ((row * t.bpc) + col) land lnot s) in
  let j = ref (Array.unsafe_get st.st_off col) in
  while !j < e do
    let io = Array.unsafe_get p !j and k = Array.unsafe_get p (!j + 1) in
    v := !v lor (((sw lsr k) land 1) lsl io);
    j := !j + 2
  done;
  !v

(* Word [v] written to the plain steered slot at mux position [col]
   (steer mask [s]): the steered-away cells keep their bits, and the
   steered bits go to the spare word's bits its pairs name. *)
let write_plain t st ~row ~col s v =
  let slot = (row * t.bpc) + col in
  Array.unsafe_set t.packed slot
    (Array.unsafe_get t.packed slot land s lor (v land lnot s));
  let p = st.st_pairs and e = Array.unsafe_get st.st_off (col + 1) in
  let sw = ref (Array.unsafe_get t.spare row) in
  let j = ref (Array.unsafe_get st.st_off col) in
  while !j < e do
    let io = Array.unsafe_get p !j and k = Array.unsafe_get p (!j + 1) in
    sw := !sw land lnot (1 lsl k) lor (((v lsr io) land 1) lsl k);
    j := !j + 2
  done;
  Array.unsafe_set t.spare row !sw

(* The physical column that I/O [bit] of mux position [col] reaches
   through steering [st]. *)
let steered_col t st ~col bit =
  let c = (bit * t.bpc) + col in
  if (Array.unsafe_get st.st_mask col lsr bit) land 1 = 0 then c
  else begin
    let j = ref (Array.unsafe_get st.st_off col) in
    while Array.unsafe_get st.st_pairs !j <> bit do
      j := !j + 2
    done;
    t.cols + Array.unsafe_get st.st_pairs (!j + 1)
  end

(* A packed access to a slot of a row with masks [ms]: [n_fast_*] count
   only rows with no armed machinery. *)
let[@inline] count_packed_write t ms =
  if Array.length ms > 0 then t.n_armed_packed <- t.n_armed_packed + 1
  else t.n_fast_writes <- t.n_fast_writes + 1

let[@inline] count_packed_read t ms =
  if Array.length ms > 0 then t.n_armed_packed <- t.n_armed_packed + 1
  else t.n_fast_reads <- t.n_fast_reads + 1

let write_at t ~row ~col v =
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if is_lazy t row then lz_write_out t;
  let ms = Array.unsafe_get t.row_masks row in
  (match t.steering with
  | Some st when Array.unsafe_get st.st_mask col <> 0 ->
      let s = Array.unsafe_get st.st_mask col in
      if steer_plain t st ms col s then begin
        write_plain t st ~row ~col s v;
        count_packed_write t ms
      end
      else
        let base = row * t.tcols in
        for bit = 0 to t.bpw - 1 do
          write_bit t
            (base + steered_col t st ~col bit)
            ((v lsr bit) land 1 = 1)
        done
  | _ ->
      let slot = (row * t.bpc) + col in
      if fast_slot t ms col then begin
        Array.unsafe_set t.packed slot v;
        count_packed_write t ms
      end
      else begin
        let m =
          if not t.fast then -1
          else
            mask ms col k_open lor mask ms col k_pinned
            lor mask ms col k_no_rise lor mask ms col k_no_fall
            lor mask ms col k_aggressor
        in
        let base = (row * t.tcols) + col in
        for bit = 0 to t.bpw - 1 do
          let b = (v lsr bit) land 1 = 1 in
          if (m lsr bit) land 1 = 1 then write_bit t (base + (bit * t.bpc)) b
          else
            Array.unsafe_set t.packed slot
              (with_bit (Array.unsafe_get t.packed slot) bit b)
        done
      end);
  mark_row_written t row;
  t.n_writes <- t.n_writes + 1

let read_at t ~row ~col =
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if is_lazy t row then lz_write_out t;
  t.n_reads <- t.n_reads + 1;
  let ms = Array.unsafe_get t.row_masks row in
  let v =
    match t.steering with
    | Some st when Array.unsafe_get st.st_mask col <> 0 ->
        let s = Array.unsafe_get st.st_mask col in
        if steer_plain t st ms col s then begin
          count_packed_read t ms;
          read_plain t st ~row ~col s
        end
        else begin
          let base = row * t.tcols and v = ref 0 in
          for bit = 0 to t.bpw - 1 do
            if read_bit t ~io:bit (base + steered_col t st ~col bit) then
              v := !v lor (1 lsl bit)
          done;
          !v
        end
    | _ ->
        let slot = (row * t.bpc) + col in
        if fast_slot t ms col then begin
          count_packed_read t ms;
          Array.unsafe_get t.packed slot
        end
        else begin
          (* a read mutates no cell, so the unmasked bits come in one
             step *)
          let m =
            if t.fast then mask ms col k_open lor mask ms col k_victim else -1
          in
          let base = (row * t.tcols) + col in
          let v = ref (Array.unsafe_get t.packed slot land lnot m) in
          for bit = 0 to t.bpw - 1 do
            if
              (m lsr bit) land 1 = 1
              && read_bit t ~io:bit (base + (bit * t.bpc))
            then v := !v lor (1 lsl bit)
          done;
          !v
        end
  in
  t.residue <- v;
  v

let check_addr t a =
  if a < 0 || a >= t.org.Org.words then
    invalid_arg "Model: address out of range"

let check_value t v =
  if v lsr t.bpw <> 0 then invalid_arg "Model: word value wider than bpw"

let check_word t w =
  if Word.width w <> t.bpw then invalid_arg "Model: word width mismatch"

let check_col t col =
  if col < 0 || col >= t.bpc then invalid_arg "Model: col out of range"

let read_int t a =
  check_addr t a;
  let row = Array.unsafe_get t.addr_row a in
  read_at t ~row:(physical_row t row) ~col:(a - (row * t.bpc))

let write_int t a v =
  check_addr t a;
  check_value t v;
  let row = Array.unsafe_get t.addr_row a in
  write_at t ~row:(physical_row t row) ~col:(a - (row * t.bpc)) v

(* Up to [len] unarmed slots of [packed] from [slot], [stride] apart:
   each compared against [pre] when that is non-negative, then set to
   [final] when that is; [m] is the first slot's parity mask, flipped
   by [alt] at every step.  Returns how many slots matched. *)
let span_slots packed ~slot ~stride ~len ~pre ~final ~alt m =
  let k = ref 0 and m = ref m and s = ref slot in
  if pre < 0 then begin
    if final < 0 then k := len
    else
      while !k < len do
        Array.unsafe_set packed !s (final lxor !m);
        m := !m lxor alt;
        s := !s + stride;
        incr k
      done
  end
  else
    while !k < len && Array.unsafe_get packed !s = pre lxor !m do
      if final >= 0 then Array.unsafe_set packed !s (final lxor !m);
      m := !m lxor alt;
      s := !s + stride;
      incr k
    done;
  !k

(* One element's ops on the armed slot at mux position [col] of a row
   with masks [ms], holding [w], whose cells are all stuck-at,
   transition or stuck-open, from sense residue [r], with parity mask
   [m]: what
   [write_at]/[read_at]'s per-bit path does, a word at a time.  A
   write keeps the bits that cannot change, a read takes the open bits
   from the residue and leaves the word read as the residue.  Returns
   the word the slot ends with, or -1 if a read mismatches. *)
let bitwise_ops ms col ~is_write ~op_word ~m w r =
  let opens = mask ms col k_open in
  let keep = mask ms col k_pinned lor opens
  and no_rise = mask ms col k_no_rise
  and no_fall = mask ms col k_no_fall in
  let w = ref w and r = ref r and i = ref 0 and ok = ref true in
  while !ok && !i < Array.length is_write do
    let v = Array.unsafe_get op_word !i lxor m in
    if Array.unsafe_get is_write !i then
      (* a changing bit keeps its old value where it is blocked *)
      let blocked = (v land no_rise) lor (!w land no_fall) lor keep in
      w := v lxor ((v lxor !w) land blocked)
    else begin
      r := (!w land lnot opens) lor (!r land opens);
      ok := !r = v
    end;
    incr i
  done;
  if !ok then !w else -1

(* One march element over a run of word slots, on clean and fault-armed
   rows alike.  On an unarmed, unsteered slot the element's effect on a
   word is decided by the element alone: reads
   before its first write compare the stored word against [pre] (all
   of them the same word, or the element mismatches everywhere), reads
   after a write compare against that write (decided here, [ok]), and
   the word ends as its last write [final].  An odd address takes every
   op word, so [pre], [final] and the last read too, through [lxor alt].
   So each address is one load, compare and store, and the counters and
   the residue (the last read's word, a match) are settled once for the
   whole run.  A plain steered slot ([steer_plain]) is such a word too,
   gathered for the compare and scattered by the final write.  On a
   fault-armed row an armed, unsteered slot runs too when it has no
   victim or aggressor bit: its ops run on a copy of the word and of the
   residue ([bitwise_ops]), committed only if every read matches, so
   the address that stops a run still mismatches, or holds coupling
   machinery or a steered bit off the plain path, as the per-op path
   would find it. *)
(* Place a span of [count] addresses from [first] in the element in
   flight: its continuation (the same words, parity and direction, from
   the address the last span ended at, or from the next one when the
   last span stopped there, on an eager row the caller ran per op) or a
   new element's first call (its first address, every address left),
   which settles the last element.  Anything else writes every lazy row
   out. *)
let lz_enter t ~up ~first ~count ~pre ~final ~alt =
  let next = t.el_next in
  if
    not
      (t.el_on && t.el_up = up && t.el_pre = pre && t.el_final = final
     && t.el_alt = alt
      && (first = next || (t.el_stop && first = next + if up then 1 else -1))
      )
  then
    if count = t.org.Org.words then begin
      lz_settle t;
      if t.lz_on then begin
        t.el_on <- true;
        t.el_up <- up;
        t.el_pre <- pre;
        t.el_final <- final;
        t.el_alt <- alt;
        t.el_next <- first
      end
    end
    else lz_write_out t

let march_span ?(alt = 0) t ~up ~first ~count ~is_write ~op_word =
  let n_ops = Array.length is_write in
  if Array.length op_word <> n_ops then
    invalid_arg "Model.march_span: op arrays differ in length";
  if (not t.fast) || count <= 0 then 0
  else begin
    (* a word wider than [bpw] mismatches or raises on the per-op path,
       so leave it there *)
    let pre = ref (-1) and final = ref (-1) and ok = ref (alt lsr t.bpw = 0) in
    let n_r = ref 0 and last_read = ref 0 in
    for i = 0 to n_ops - 1 do
      let w = op_word.(i) in
      if w lsr t.bpw <> 0 then ok := false
      else if is_write.(i) then final := w
      else begin
        incr n_r;
        last_read := w;
        if !final >= 0 then (if w <> !final then ok := false)
        else if !pre < 0 then pre := w
        else if w <> !pre then ok := false
      end
    done;
    let pre = !pre and final = !final and n_r = !n_r in
    let stride = if up then 1 else -1 in
    (* addresses past the array's end are left to the per-op path's
       range check *)
    let words = t.org.Org.words in
    let count =
      if first < 0 || first >= words then 0
      else Int.min count (if up then words - first else first + 1)
    in
    let tracked =
      t.lz_on && !ok && count > 0
      && begin
           lz_enter t ~up ~first ~count ~pre ~final ~alt;
           t.lz_on
         end
    in
    let dn = if up then 0 else 1 and edge = if up then 0 else t.bpc - 1 in
    let bpc = t.bpc and packed = t.packed and nrows = t.nrows in
    let mapped = t.row_mapped and row_map = t.row_map in
    let steering = t.steering in
    let steered = Option.is_some steering in
    let n = ref 0 and n_armed = ref 0 and n_bitwise = ref 0 in
    let stop = ref (not !ok) and last_read = !last_read in
    while (not !stop) && !n < count do
      let a = first + (stride * !n) in
      let lrow = Array.unsafe_get t.addr_row a in
      let row = if mapped then Array.unsafe_get row_map lrow else lrow in
      let col = a - (lrow * bpc) in
      (* a run of lazy rows, entered at its edge, is passed whole when
         their image matches the element's first reads; otherwise every
         lazy row is written out and this one goes the eager way *)
      let run = lz_run t ((2 * lrow) + dn) in
      let skip =
        if run = 0 then 0
        else
          let k = Int.min run ((count - !n) / bpc) in
          if
            k > 0 && col = edge
            && (pre < 0 || (pre = t.img_even && pre lxor alt = t.img_odd))
          then k * bpc
          else begin
            t.el_next <- a;
            lz_write_out t;
            0
          end
      in
      if skip > 0 then n := !n + skip
      else if row < 0 || row >= nrows then stop := true
      else begin
        let ms = Array.unsafe_get t.row_masks row in
        let armed_row = Array.length ms > 0 in
        let head = Int.min (count - !n) (if up then bpc - col else col + 1) in
        let slot = (row * bpc) + col in
        (* the run's slots: this row's; a clean row's run, while no
           column map is armed, goes on through each next logical row
           that is clean too and lies in step physically, so its slots
           follow on in [packed].  A fault-armed row's run, and every
           row's under a column map, goes slot by slot. *)
        let by_slot = armed_row || steered in
        let len = ref head in
        if not by_slot then begin
          let j = ref 1 in
          while
            !n + !len < count
            &&
            let lr = lrow + (stride * !j) in
            let r = if mapped then Array.unsafe_get row_map lr else lr in
            r = row + (stride * !j)
            && r >= 0 && r < nrows
            && (not (row_is_faulty t r))
            && not (is_lazy t r)
          do
            len := Int.min (count - !n) (!len + bpc);
            incr j
          done
        end;
        let len = !len in
        let m = alt land -(a land 1) in
        let k =
          if not by_slot then
            span_slots packed ~slot ~stride ~len ~pre ~final ~alt m
          else begin
            (* slot by slot, up to the first that does not complete: an
               unarmed or plain steered slot packed, an armed one
               bitwise unless it holds coupling machinery *)
            let k = ref 0 and go = ref true in
            while !go && !k < len do
              let sl = slot + (stride * !k) and c = col + (stride * !k) in
              let mk = m lxor (alt land -(!k land 1)) in
              (match steering with
               | Some st when Array.unsafe_get st.st_mask c <> 0 ->
                   let s = Array.unsafe_get st.st_mask c in
                   if
                     steer_plain t st ms c s
                     && (pre < 0 || read_plain t st ~row ~col:c s = pre lxor mk)
                   then begin
                     if final >= 0 then
                       write_plain t st ~row ~col:c s (final lxor mk)
                   end
                   else go := false
               | _ ->
                   if (not armed_row) || mask ms c 0 = 0 then begin
                     let w = Array.unsafe_get packed sl in
                     if pre >= 0 && w <> pre lxor mk then go := false
                     else if final >= 0 then
                       Array.unsafe_set packed sl (final lxor mk)
                   end
                   else if mask ms c k_victim lor mask ms c k_aggressor <> 0
                   then go := false
                   else
                     (* from the residue the previous address's last
                        read left *)
                     let r =
                       if !n + !k > 0 && n_r > 0 then
                         last_read lxor mk lxor alt
                       else t.residue
                     in
                     let w =
                       bitwise_ops ms c ~is_write ~op_word ~m:mk
                         (Array.unsafe_get packed sl) r
                     in
                     if w < 0 then go := false
                     else begin
                       Array.unsafe_set packed sl w;
                       incr n_bitwise
                     end);
              if !go then incr k
            done;
            !k
          end
        in
        (* every row the completed slots reach is written *)
        if k > 0 && final >= 0 then begin
          mark_row_written t row;
          let r = ref row and reached = ref head in
          while !reached < k do
            r := !r + stride;
            mark_row_written t !r;
            reached := !reached + bpc
          done
        end;
        if armed_row then n_armed := !n_armed + k;
        n := !n + k;
        if k < len then stop := true
      end
    done;
    (* a bitwise address counts as the per-op path counts it: as reads
       and writes only; a plain steered one as a packed one *)
    let n = !n and n_armed = !n_armed in
    if tracked && t.lz_on then begin
      t.el_next <- first + (stride * n);
      t.el_stop <- n < count
    end;
    let n_w = n_ops - n_r in
    t.n_reads <- t.n_reads + (n * n_r);
    t.n_fast_reads <- t.n_fast_reads + ((n - n_armed) * n_r);
    t.n_writes <- t.n_writes + (n * n_w);
    t.n_fast_writes <- t.n_fast_writes + ((n - n_armed) * n_w);
    t.n_armed_packed <- t.n_armed_packed + ((n_armed - !n_bitwise) * n_ops);
    if n > 0 && n_r > 0 then
      t.residue <-
        last_read lxor (alt land -((first + (stride * (n - 1))) land 1));
    n
  end

let read_word t a = Word.of_int ~width:t.bpw (read_int t a)

let write_word t a w =
  check_word t w;
  write_int t a (Word.to_int w)

let read_row_word t ~row ~col =
  check_col t col;
  Word.of_int ~width:t.bpw (read_at t ~row ~col)

let write_row_word t ~row ~col w =
  check_word t w;
  check_col t col;
  write_at t ~row ~col (Word.to_int w)

(* Decay is confined to retention-faulty cells, so it walks the armed
   fault list; for several retention faults on one cell the last one
   wins. *)
let retention_wait t =
  List.iter
    (fun f ->
      match f with
      | F.Data_retention (c, v) ->
          let i = idx t c in
          if not (has (flag t i) k_pinned) then store t i v
      | _ -> ())
    t.fault_list

let reads t = t.n_reads
let writes t = t.n_writes

type stats = {
  s_reads : int;
  s_writes : int;
  s_fast_reads : int;
  s_fast_writes : int;
  s_armed_packed : int;
  s_rows_cleared : int;
}

let stats t =
  { s_reads = t.n_reads
  ; s_writes = t.n_writes
  ; s_fast_reads = t.n_fast_reads
  ; s_fast_writes = t.n_fast_writes
  ; s_armed_packed = t.n_armed_packed
  ; s_rows_cleared = t.n_rows_cleared
  }

let lazy_rows t =
  let n = ref 0 in
  for row = 0 to t.nrows - 1 do
    if is_lazy t row then incr n
  done;
  !n
