module F = Bisram_faults.Fault

type agg_effect =
  | Invert of int (* victim idx *)
  | Force of { rising : bool; victim : int; forces : bool }

(* Column steering (2D BIRA), tabulated once by [set_col_remap]:
   [st_target.(c)] is the physical column regular column [c] resolves
   to (a spare column for a repaired line, [c] itself elsewhere), and
   bit [b] of [st_mask.(col)] marks an I/O whose column at mux position
   [col] is steered away from itself. *)
type steering = { st_target : int array; st_mask : int array }

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
  (* Per-cell fault flags, one byte per physical cell (the [f_*] bits
     below).  The coupling relations themselves are the two lists,
     newest fault first: (victim, aggressor, trigger state, reads_as)
     and (aggressor, effect).  A trial arms a handful of faults, so a
     flagged cell scans them; every other cell never looks. *)
  flags : Bytes.t;
  mutable state_cpl : (int * int * bool * bool) list;
  mutable agg_effects : (int * agg_effect) list;
  (* Fault-bit masks per (row, col-mux) word slot, built by
     [set_faults]: bit [b] of [rmask] marks an I/O whose read needs the
     per-cell machinery (stuck-open cell or state-coupling victim), bit
     [b] of [wmask] one whose write does (stuck-open, stuck-at,
     transition or coupling aggressor).  A slot with either mask
     non-zero is armed: its masked bits take the per-cell path, every
     other bit is a plain load or store. *)
  rmask : int array;
  wmask : int array;
  (* The armed slots [march_span] runs bitwise, tabulated by
     [set_faults] per fault-armed row: a row's [row_fault] byte is 1 +
     its entry (255: none), and slot [col] of entry [e] holds at
     [4 * ((e * bpc) + col)] the bits that keep their value (pinned or
     open), cannot rise, cannot fall (a cell with both transition
     faults is in both), and read the sense residue (open).  A keep of
     -1 marks a slot with a coupling aggressor or state-coupling victim
     bit, which only the per-op path resolves.  Allocated on a model's
     first armed fault and reused while large enough. *)
  mutable bitwise : int array;
  mutable armed_rows : int;
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
  (* Fast-path bookkeeping.  [row_fault] marks every row on which any
     fault machinery is armed (fault site, coupling aggressor or
     victim): [clear] always wipes it, and [n_fast_*] skip its ops even
     where its unarmed slots serve them packed.  [row_written] marks
     rows whose data may differ from the power-up zeros.  [nfaults] is
     the armed total, so the all-clean test is a single integer
     compare. *)
  mutable nfaults : int;
  row_fault : Bytes.t;
  row_written : Bytes.t;
  mutable fast : bool; (* test seam: disable to force the legacy path *)
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
  ; flags = Bytes.make (nrows * tcols) '\000'
  ; state_cpl = []
  ; agg_effects = []
  ; rmask = Array.make (nrows * org.Org.bpc) 0
  ; wmask = Array.make (nrows * org.Org.bpc) 0
  ; bitwise = [||]
  ; armed_rows = 0
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
  ; nfaults = 0
  ; row_fault = Bytes.make nrows '\000'
  ; row_written = Bytes.make nrows '\000'
  ; fast = true
  }

let idx t (c : F.cell) =
  if c.F.row < 0 || c.F.row >= t.nrows then
    invalid_arg "Model: fault row out of range";
  if c.F.col < 0 || c.F.col >= t.tcols then
    invalid_arg "Model: fault col out of range";
  (c.F.row * t.tcols) + c.F.col

let f_open = 1
let f_no_rise = 2
let f_no_fall = 4
let f_pinned = 8 (* stuck-at *)
let f_victim = 16 (* state-coupling victim *)
let f_aggressor = 32 (* inversion or idempotent coupling aggressor *)
let flag t i = Char.code (Bytes.unsafe_get t.flags i)
let set_flag t i f =
  Bytes.unsafe_set t.flags i (Char.unsafe_chr (flag t i lor f))

let row_is_faulty t row = Bytes.unsafe_get t.row_fault row <> '\000'
(* A row's first mark numbers it, so its [bitwise] entry is [byte - 1];
   past the 254th armed row the byte is 255, no entry. *)
let mark_row_fault t row =
  if Bytes.unsafe_get t.row_fault row = '\000' then begin
    t.armed_rows <- t.armed_rows + 1;
    Bytes.unsafe_set t.row_fault row
      (Char.unsafe_chr (Int.min 255 t.armed_rows))
  end

let mark_row_written t row = Bytes.unsafe_set t.row_written row '\001'

(* A slot is armed when any of its bits needs the per-cell machinery;
   only armed slots leave the packed path.  Masks are non-zero only on
   fault-armed rows, so an unarmed row's slots are never armed. *)
let slot_armed t slot =
  Array.unsafe_get t.rmask slot lor Array.unsafe_get t.wmask slot <> 0

(* Can the word slot take the packed path: plain loads and stores of
   [packed], no per-cell machinery?  With no fault armed, every slot
   can. *)
let fast_slot t slot = t.fast && (t.nfaults = 0 || not (slot_armed t slot))

let with_bit w bit v = if v then w lor (1 lsl bit) else w land lnot (1 lsl bit)

(* Cell-granular access used by the per-cell fault machinery: cell [i]
   is a bit of its word slot, or of its row's spare int. *)
let stored t i =
  let row = t.cell_row.(i) in
  let c = i - (row * t.tcols) in
  if c < t.cols then
    let bit = Array.unsafe_get t.col_bit c in
    (Array.unsafe_get t.packed ((row * t.bpc) + c - (bit * t.bpc)) lsr bit)
    land 1
    = 1
  else (Array.unsafe_get t.spare row lsr (c - t.cols)) land 1 = 1

let store t i v =
  let row = t.cell_row.(i) in
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

let set_fast_path t on = t.fast <- on

let clear t =
  (* power-up fill, dirty rows only: a row holds non-zero data only if
     it was written (or force-stored / decayed, which is confined to
     fault-armed rows) since the previous clear *)
  for row = 0 to t.nrows - 1 do
    if
      Bytes.unsafe_get t.row_written row <> '\000'
      || Bytes.unsafe_get t.row_fault row <> '\000'
    then begin
      Array.fill t.packed (row * t.bpc) t.bpc 0;
      Array.unsafe_set t.spare row 0;
      Bytes.unsafe_set t.row_written row '\000';
      t.n_rows_cleared <- t.n_rows_cleared + 1
    end
  done;
  (* re-assert pinned cells: the last Stuck_at on a cell wins *)
  List.iter
    (fun f -> match f with F.Stuck_at (c, v) -> store t (idx t c) v | _ -> ())
    t.fault_list;
  t.residue <- 0

(* Flag cell [c]'s I/O in its word slot's fault-bit mask.  Spare-column
   cells have no slot: a steered access checks their flags itself
   ([steer_plain]). *)
let mask_cell t masks (c : F.cell) =
  if c.F.col < t.cols then begin
    let bit = t.col_bit.(c.F.col) in
    let slot = (c.F.row * t.bpc) + c.F.col - (bit * t.bpc) in
    masks.(slot) <- masks.(slot) lor (1 lsl bit)
  end

(* Regular cell [c]'s [bitwise] slot entry, or -1 for a spare-column
   cell (it has no slot) or a row past the table. *)
let bitwise_entry t (c : F.cell) =
  let e = Char.code (Bytes.unsafe_get t.row_fault c.F.row) in
  if c.F.col >= t.cols || e = 255 then -1
  else 4 * (((e - 1) * t.bpc) + c.F.col - (t.col_bit.(c.F.col) * t.bpc))

let tabulate_bitwise t =
  let n = 4 * Int.min t.armed_rows 254 * t.bpc in
  if n > 0 then begin
    if Array.length t.bitwise < n then t.bitwise <- Array.make n 0
    else Array.fill t.bitwise 0 n 0;
    let set (c : F.cell) k =
      let b = bitwise_entry t c in
      if b >= 0 then
        t.bitwise.(b + k) <- t.bitwise.(b + k) lor (1 lsl t.col_bit.(c.F.col))
    in
    let couple c =
      let b = bitwise_entry t c in
      if b >= 0 then t.bitwise.(b) <- -1
    in
    List.iter
      (fun f ->
        match f with
        | F.Stuck_at (c, _) -> set c 0
        | F.Transition (c, up) -> set c (if up then 1 else 2)
        | F.Stuck_open c ->
            set c 0;
            set c 3
        | F.Coupling_inversion { aggressor = c; _ }
        | F.Coupling_idempotent { aggressor = c; _ }
        | F.State_coupling { victim = c; _ } ->
            couple c
        | F.Data_retention _ -> ())
      t.fault_list
  end

let set_faults t faults =
  (* tear down the previous fault machinery, armed rows only *)
  for row = 0 to t.nrows - 1 do
    if Bytes.unsafe_get t.row_fault row <> '\000' then begin
      let off = row * t.tcols in
      Bytes.fill t.flags off t.tcols '\000';
      Array.fill t.rmask (row * t.bpc) t.bpc 0;
      Array.fill t.wmask (row * t.bpc) t.bpc 0;
      (* the row may hold non-zero cells planted by the old config
         without [row_written] being set (pin re-assertion in [clear],
         retention decay, coupling force-stores), so flag it written:
         once [row_fault] drops, only that flag makes the final [clear]
         restore the power-up zeros *)
      mark_row_written t row;
      Bytes.unsafe_set t.row_fault row '\000'
    end
  done;
  t.armed_rows <- 0;
  t.fault_list <- faults;
  t.state_cpl <- [];
  t.agg_effects <- [];
  t.nfaults <- 0;
  List.iter
    (fun f ->
      (match f with
      | F.Stuck_at (c, _) ->
          (* [clear] stores the stuck value *)
          let i = idx t c in
          mark_row_fault t c.F.row;
          mask_cell t t.wmask c;
          set_flag t i f_pinned
      | F.Transition (c, up) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          mask_cell t t.wmask c;
          set_flag t i (if up then f_no_rise else f_no_fall)
      | F.Stuck_open c ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          mask_cell t t.rmask c;
          mask_cell t t.wmask c;
          set_flag t i f_open
      | F.Data_retention (c, _) ->
          (* decay walks the fault list ([retention_wait]) *)
          ignore (idx t c);
          mark_row_fault t c.F.row
      | F.Coupling_inversion { aggressor; victim } ->
          let a = idx t aggressor and v = idx t victim in
          mark_row_fault t aggressor.F.row;
          mark_row_fault t victim.F.row;
          mask_cell t t.wmask aggressor;
          set_flag t a f_aggressor;
          t.agg_effects <- (a, Invert v) :: t.agg_effects
      | F.Coupling_idempotent { aggressor; rising; victim; forces } ->
          let a = idx t aggressor and v = idx t victim in
          mark_row_fault t aggressor.F.row;
          mark_row_fault t victim.F.row;
          mask_cell t t.wmask aggressor;
          set_flag t a f_aggressor;
          t.agg_effects <-
            (a, Force { rising; victim = v; forces }) :: t.agg_effects
      | F.State_coupling { aggressor; when_state; victim; reads_as } ->
          let a = idx t aggressor and v = idx t victim in
          (* only the victim's reads are special; plain writes to the
             aggressor stay on the fast path because the victim re-reads
             the aggressor's stored state on every access *)
          mark_row_fault t victim.F.row;
          mask_cell t t.rmask victim;
          set_flag t v f_victim;
          t.state_cpl <- (v, a, when_state, reads_as) :: t.state_cpl);
      t.nfaults <- t.nfaults + 1)
    faults;
  tabulate_bitwise t;
  clear t

(* Tabulated once per install, so no access calls [f].  Every installer
   either never changes its map after install (2D BIRA's pairs, the
   hybrid's table) or installs it again after each change: the row TLB
   learns only in the controller's first pass, with no remap armed,
   and in [Repair.iterate]'s learn step, which its arm step always
   follows. *)
let set_remap t f =
  t.row_mapped <- false;
  match f with
  | None -> ()
  | Some f ->
      let n = Org.rows t.org in
      if Array.length t.row_map <> n then t.row_map <- Array.make n 0;
      for r = 0 to n - 1 do
        Array.unsafe_set t.row_map r (f r)
      done;
      t.row_mapped <- true

let set_col_remap t f =
  t.steering <-
    (match f with
    | None -> None
    | Some g ->
        (* validate and tabulate the whole map up front, so the hot path
           neither checks nor calls it *)
        let st_target =
          Array.init t.cols (fun c ->
              let q = g c in
              if q < 0 || q >= t.tcols then
                invalid_arg "Model.set_col_remap: mapped column out of range";
              q)
        in
        let st_mask = Array.make t.bpc 0 in
        Array.iteri
          (fun c q ->
            if q <> c then begin
              let bit = t.col_bit.(c) in
              let col = c - (bit * t.bpc) in
              st_mask.(col) <- st_mask.(col) lor (1 lsl bit)
            end)
          st_target;
        (* a map that steers nothing arms nothing, so an armed map
           stops [march_span]'s cap scan within [bpc] addresses *)
        if Array.fold_left ( lor ) 0 st_mask = 0 then None
        else Some { st_target; st_mask })

(* Coupling-driven store: respects pins (a stuck node cannot be flipped
   by crosstalk) but bypasses transition faults. *)
let force_store t i v = if flag t i land f_pinned = 0 then store t i v

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
  if f land (f_open lor f_pinned) = 0 then begin
    let old_v = stored t i in
    let blocked =
      (v && (not old_v) && f land f_no_rise <> 0)
      || ((not v) && old_v && f land f_no_fall <> 0)
    in
    if not blocked then begin
      store t i v;
      if f land f_aggressor <> 0 then fire_coupling t i ~old_v ~new_v:v
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
  if f land f_open <> 0 then (t.residue lsr io) land 1 = 1
  else if f land f_victim = 0 then stored t i
  else sense_coupled t i (stored t i) t.state_cpl

let physical_row t row =
  if t.row_mapped then Array.unsafe_get t.row_map row else row

(* A word access is fast when its slot is unarmed ([fast_slot]) and
   unsteered: no pin, transition or open fault to consult, no aggressor
   effect to fire and no state-coupled read to resolve.  Then it is one
   packed array load or store, whatever machinery sits elsewhere on its
   row (a coupling victim or a retention cell only changes on another
   access or a wait).  On an armed slot only the bits of the slot's
   fault mask go through [read_bit]/[write_bit] (every bit, mask -1,
   with the fast path off); the others are plain bits of the packed
   word.  A steered slot (non-zero steer mask [s]) whose steered bits
   all land on unflagged spare-column cells ([steer_plain]) is the
   packed word outside [s] plus those spare bits, and nothing it
   touches can fire; any other steered slot resolves every bit through
   the column map.  Writes go bit by bit, I/O 0 first, which keeps the
   legacy order of coupling side effects within a word: a masked
   aggressor may flip a later, unmasked bit before that bit is written.
   Every read, on any path, leaves the word it returns as the sense
   residue. *)

(* Can the steered slot [slot] at mux position [col] skip the per-bit
   path?  Its own slot must be unarmed and each steered bit's target an
   unflagged spare-column cell; a flagged cell sits on a fault-armed
   row, so a clean row needs no flag lookups. *)
let steer_plain t st ~row ~col ~slot s =
  fast_slot t slot
  &&
  let base = row * t.tcols and armed_row = row_is_faulty t row in
  let ok = ref true and bit = ref 0 in
  while !ok && !bit < t.bpw do
    if (s lsr !bit) land 1 = 1 then begin
      let q = Array.unsafe_get st.st_target ((!bit * t.bpc) + col) in
      ok := q >= t.cols && ((not armed_row) || flag t (base + q) = 0)
    end;
    incr bit
  done;
  !ok

(* The physical column that I/O [bit] of mux position [col] reaches
   through steering [st]. *)
let steered_col t st ~col bit =
  Array.unsafe_get st.st_target ((bit * t.bpc) + col)

(* A write to the steered slot at mux position [col] (steer mask
   [s]). *)
let write_steered t st ~row ~col s v =
  let slot = (row * t.bpc) + col and base = row * t.tcols in
  if steer_plain t st ~row ~col ~slot s then begin
    let cur = Array.unsafe_get t.packed slot in
    Array.unsafe_set t.packed slot ((cur land s) lor (v land lnot s));
    for bit = 0 to t.bpw - 1 do
      if (s lsr bit) land 1 = 1 then
        store t (base + steered_col t st ~col bit) ((v lsr bit) land 1 = 1)
    done;
    if row_is_faulty t row then t.n_armed_packed <- t.n_armed_packed + 1
    else t.n_fast_writes <- t.n_fast_writes + 1
  end
  else
    for bit = 0 to t.bpw - 1 do
      write_bit t (base + steered_col t st ~col bit) ((v lsr bit) land 1 = 1)
    done

(* A read of the steered slot at mux position [col] (steer mask [s]);
   the caller leaves the word as the residue. *)
let read_steered t st ~row ~col s =
  let slot = (row * t.bpc) + col and base = row * t.tcols in
  let v = ref 0 in
  if steer_plain t st ~row ~col ~slot s then begin
    if row_is_faulty t row then t.n_armed_packed <- t.n_armed_packed + 1
    else t.n_fast_reads <- t.n_fast_reads + 1;
    v := Array.unsafe_get t.packed slot land lnot s;
    for bit = 0 to t.bpw - 1 do
      if (s lsr bit) land 1 = 1 && stored t (base + steered_col t st ~col bit)
      then v := !v lor (1 lsl bit)
    done
  end
  else
    for bit = 0 to t.bpw - 1 do
      if read_bit t ~io:bit (base + steered_col t st ~col bit) then
        v := !v lor (1 lsl bit)
    done;
  !v

let write_at t ~row ~col v =
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  (match t.steering with
  | Some st when Array.unsafe_get st.st_mask col <> 0 ->
      write_steered t st ~row ~col (Array.unsafe_get st.st_mask col) v
  | _ ->
      let slot = (row * t.bpc) + col in
      if fast_slot t slot then begin
        Array.unsafe_set t.packed slot v;
        (* [n_fast_*] count only rows with no armed machinery *)
        if row_is_faulty t row then t.n_armed_packed <- t.n_armed_packed + 1
        else t.n_fast_writes <- t.n_fast_writes + 1
      end
      else begin
        let m = if t.fast then Array.unsafe_get t.wmask slot else -1 in
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
  t.n_reads <- t.n_reads + 1;
  match t.steering with
  | Some st when Array.unsafe_get st.st_mask col <> 0 ->
      let v = read_steered t st ~row ~col (Array.unsafe_get st.st_mask col) in
      t.residue <- v;
      v
  | _ ->
      let slot = (row * t.bpc) + col in
      if fast_slot t slot then begin
        if row_is_faulty t row then t.n_armed_packed <- t.n_armed_packed + 1
        else t.n_fast_reads <- t.n_fast_reads + 1;
        let v = Array.unsafe_get t.packed slot in
        t.residue <- v;
        v
      end
      else begin
        (* a read mutates no cell, so the unmasked bits come in one step *)
        let m = if t.fast then Array.unsafe_get t.rmask slot else -1 in
        let base = (row * t.tcols) + col in
        let v = ref (Array.unsafe_get t.packed slot land lnot m) in
        for bit = 0 to t.bpw - 1 do
          if (m lsr bit) land 1 = 1 && read_bit t ~io:bit (base + (bit * t.bpc))
          then v := !v lor (1 lsl bit)
        done;
        t.residue <- !v;
        !v
      end

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

(* One element's ops on an armed slot holding [w] whose masked bits
   are all stuck-at, transition or stuck-open cells ([bitwise] entry
   [b]), from sense residue [r], with parity mask [m]: what
   [write_at]/[read_at]'s per-bit path does, a word at a time.  A
   write keeps the bits that cannot change, a read takes the open bits
   from the residue and leaves the word read as the residue.  Returns
   the word the slot ends with, or -1 if a read mismatches. *)
let bitwise_ops bitwise b ~is_write ~op_word ~m w r =
  let keep = Array.unsafe_get bitwise b
  and no_rise = Array.unsafe_get bitwise (b + 1)
  and no_fall = Array.unsafe_get bitwise (b + 2)
  and opens = Array.unsafe_get bitwise (b + 3) in
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

(* One march element over a run of unarmed, unsteered slots, on clean
   and fault-armed rows alike.  On such a slot the element's effect on a
   word is decided by the element alone: reads
   before its first write compare the stored word against [pre] (all
   of them the same word, or the element mismatches everywhere), reads
   after a write compare against that write (decided here, [ok]), and
   the word ends as its last write [final].  An odd address takes every
   op word, so [pre], [final] and the last read too, through [lxor alt].
   So each address is one load, compare and store, and the counters and
   the residue (the last read's word, a match) are settled once for the
   whole run.  On a fault-armed row an armed slot runs too when its
   [bitwise] entry has no coupling bit: its ops run on a copy of the
   word and of the residue ([bitwise_ops]), committed only if every read
   matches, so the address that stops a run still mismatches, or holds
   coupling machinery, as the per-op path would find it. *)
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
    (* a column map steers the same mux positions on every row, so the
       run ends before the first address at a steered position: capped
       here, once, at most [bpc] addresses on ([set_col_remap] arms no
       map that steers nothing) *)
    let count =
      match t.steering with
      | None -> count
      | Some st ->
          let j = ref 0 in
          while
            !j < count
            &&
            let a = first + (stride * !j) in
            Array.unsafe_get st.st_mask
              (a - (Array.unsafe_get t.addr_row a * t.bpc))
            = 0
          do
            incr j
          done;
          !j
    in
    let bpc = t.bpc and packed = t.packed and nrows = t.nrows in
    let mapped = t.row_mapped and row_map = t.row_map in
    let any_armed = t.nfaults > 0 in
    let n = ref 0 and n_armed = ref 0 and n_bitwise = ref 0 in
    let stop = ref (not !ok) and last_read = !last_read in
    while (not !stop) && !n < count do
      let a = first + (stride * !n) in
      let lrow = Array.unsafe_get t.addr_row a in
      let row = if mapped then Array.unsafe_get row_map lrow else lrow in
      if row < 0 || row >= nrows then stop := true
      else begin
        let armed_row = any_armed && row_is_faulty t row in
        let col = a - (lrow * bpc) in
        let head = Int.min (count - !n) (if up then bpc - col else col + 1) in
        let slot = (row * bpc) + col in
        (* the run's slots: this row's; a clean row's run goes on through
           each next logical row that is clean too and lies in step
           physically, so its slots follow on in [packed].  A
           fault-armed row's run goes slot by slot. *)
        let len = ref head in
        if not armed_row then begin
          let j = ref 1 in
          while
            !n + !len < count
            &&
            let lr = lrow + (stride * !j) in
            let r = if mapped then Array.unsafe_get row_map lr else lr in
            r = row + (stride * !j)
            && r >= 0 && r < nrows
            && not (any_armed && row_is_faulty t r)
          do
            len := Int.min (count - !n) (!len + bpc);
            incr j
          done
        end;
        let len = !len in
        let m = alt land -(a land 1) in
        let k =
          if not armed_row then
            span_slots packed ~slot ~stride ~len ~pre ~final ~alt m
          else begin
            (* slot by slot, up to the first that does not complete: an
               unarmed slot packed, an armed one bitwise where its entry
               allows *)
            let e = Char.code (Bytes.unsafe_get t.row_fault row) in
            let k = ref 0 and go = ref true in
            while !go && !k < len do
              let s = slot + (stride * !k) in
              let mk = m lxor (alt land -(!k land 1)) in
              let b = 4 * (((e - 1) * bpc) + col + (stride * !k)) in
              (if not (slot_armed t s) then
                 go :=
                   span_slots packed ~slot:s ~stride ~len:1 ~pre ~final ~alt mk
                   = 1
               else if e = 255 || Array.unsafe_get t.bitwise b < 0 then
                 go := false
               else
                 (* from the residue the previous address's last read
                    left *)
                 let r =
                   if !n + !k > 0 && n_r > 0 then last_read lxor mk lxor alt
                   else t.residue
                 in
                 let w =
                   bitwise_ops t.bitwise b ~is_write ~op_word ~m:mk
                     (Array.unsafe_get packed s) r
                 in
                 if w < 0 then go := false
                 else begin
                   Array.unsafe_set packed s w;
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
       and writes only *)
    let n = !n and n_armed = !n_armed in
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
          if flag t i land f_pinned = 0 then store t i v
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
