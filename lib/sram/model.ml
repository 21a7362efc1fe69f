module F = Bisram_faults.Fault

type agg_effect =
  | Invert of int (* victim idx *)
  | Force of { rising : bool; victim : int; forces : bool }

type t = {
  org : Org.t;
  ncells : int;
  nrows : int;
  cols : int; (* regular physical columns: bpw * bpc *)
  (* Row stride of the cell arrays: cols + spare_cols.  Cells at
     offsets cols .. tcols-1 within a row are the spare columns; they
     are reachable only through an armed column remap (and by fault
     arming), and they always live in the byte store — the packed store
     covers exactly the regular [cols] grid. *)
  tcols : int;
  bpc : int;
  bpw : int;
  (* Packed fast-path store: one int per (row, col-mux) word, bit [b]
     of slot [row * bpc + col] = cell (row, b*bpc + col).  Authoritative
     for every row without armed fault machinery while [fast] is on. *)
  packed : int array;
  (* Legacy byte-per-cell store: authoritative for fault-armed rows
     (and for every row when [fast] is off). *)
  cells : Bytes.t;
  (* fault indices, one slot per physical cell *)
  mutable fault_list : F.t list;
  pin : bool option array;
  no_rise : bool array;
  no_fall : bool array;
  opens : bool array;
  retention : bool option array;
  state_cpl : (int * bool * bool) list array; (* victim -> (agg, state, reads_as) *)
  agg_effects : agg_effect list array; (* aggressor -> effects *)
  (* Per-I/O sense-amp residue, packed: bit [io] is the last value
     sensed on I/O [io] (what a stuck-open cell there reads back). *)
  mutable residue : int;
  mutable remap : (int -> int) option;
  (* Column steering (2D BIRA): maps a regular physical column to the
     physical column actually accessed (a spare column for repaired
     lines, itself everywhere else).  While armed, every word access
     takes the per-bit path — the packed fast path assumes the identity
     column map. *)
  mutable col_remap : (int -> int) option;
  mutable n_reads : int;
  mutable n_writes : int;
  (* Access-regime telemetry: how many of the reads/writes took the
     packed fast path, plus the row traffic of [set_fast_path]
     migrations and [clear].  Plain unconditional increments adjacent
     to the ones above — cheaper than any enabled-check would be. *)
  mutable n_fast_reads : int;
  mutable n_fast_writes : int;
  mutable n_rows_migrated : int;
  mutable n_rows_cleared : int;
  (* Fast-path bookkeeping.  [row_fault] marks every row on which any
     fault machinery is armed (fault site, coupling aggressor or
     victim); [row_written] marks rows whose data may differ from the
     power-up zeros.  [nfaults] is the armed total, so the all-clean
     test is a single integer compare. *)
  mutable nfaults : int;
  row_fault : Bytes.t;
  row_written : Bytes.t;
  mutable fast : bool; (* test seam: disable to force the legacy path *)
}

let org t = t.org

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
  let ncells = nrows * tcols in
  { org
  ; ncells
  ; nrows
  ; cols
  ; tcols
  ; bpc = org.Org.bpc
  ; bpw = org.Org.bpw
  ; packed = Array.make (nrows * org.Org.bpc) 0
  ; cells = Bytes.make ncells '\000'
  ; fault_list = []
  ; pin = Array.make ncells None
  ; no_rise = Array.make ncells false
  ; no_fall = Array.make ncells false
  ; opens = Array.make ncells false
  ; retention = Array.make ncells None
  ; state_cpl = Array.make ncells []
  ; agg_effects = Array.make ncells []
  ; residue = 0
  ; remap = None
  ; col_remap = None
  ; n_reads = 0
  ; n_writes = 0
  ; n_fast_reads = 0
  ; n_fast_writes = 0
  ; n_rows_migrated = 0
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

let row_is_faulty t row = Bytes.unsafe_get t.row_fault row <> '\000'
let mark_row_fault t row = Bytes.unsafe_set t.row_fault row '\001'
let mark_row_written t row = Bytes.unsafe_set t.row_written row '\001'

(* A cell's data lives in [packed] iff its row is in the fast regime.
   Rows change regime only inside [set_faults] (whose trailing [clear]
   wipes both stores back to power-up zeros) and [set_fast_path] (which
   migrates the data), so the two stores never disagree. *)
let row_in_packed t row = t.fast && not (row_is_faulty t row)

(* Cell-granular access used by the legacy fault machinery.  Regime
   aware: a State_coupling victim re-reads its aggressor's stored
   state, and the aggressor may sit on a clean (packed) row. *)
let stored t i =
  let row = i / t.tcols in
  let c = i - (row * t.tcols) in
  if c < t.cols && row_in_packed t row then begin
    let col = c mod t.bpc and bit = c / t.bpc in
    (Array.unsafe_get t.packed ((row * t.bpc) + col) lsr bit) land 1 = 1
  end
  else Bytes.get t.cells i <> '\000'

let store t i v =
  let row = i / t.tcols in
  let c = i - (row * t.tcols) in
  if c < t.cols && row_in_packed t row then begin
    let col = c mod t.bpc and bit = c / t.bpc in
    let slot = (row * t.bpc) + col in
    let cur = Array.unsafe_get t.packed slot in
    Array.unsafe_set t.packed slot
      (if v then cur lor (1 lsl bit) else cur land lnot (1 lsl bit))
  end
  else Bytes.set t.cells i (if v then '\001' else '\000')

let set_fast_path t on =
  if on <> t.fast then begin
    (* migrate every clean row between the two stores so the regime
       switch is observationally silent (fault-armed rows already live
       in the byte store on both sides) *)
    for row = 0 to t.nrows - 1 do
      if not (row_is_faulty t row) then begin
        t.n_rows_migrated <- t.n_rows_migrated + 1;
        (* only the regular [cols] grid migrates; spare-column cells
           are byte-store residents in both regimes *)
        for col = 0 to t.bpc - 1 do
          let slot = (row * t.bpc) + col in
          let base = (row * t.tcols) + col in
          if on then begin
            let v = ref 0 in
            for bit = 0 to t.bpw - 1 do
              if Bytes.unsafe_get t.cells (base + (bit * t.bpc)) <> '\000'
              then v := !v lor (1 lsl bit);
              Bytes.unsafe_set t.cells (base + (bit * t.bpc)) '\000'
            done;
            t.packed.(slot) <- !v
          end
          else begin
            let v = t.packed.(slot) in
            for bit = 0 to t.bpw - 1 do
              Bytes.unsafe_set t.cells
                (base + (bit * t.bpc))
                (if (v lsr bit) land 1 = 1 then '\001' else '\000')
            done;
            t.packed.(slot) <- 0
          end
        done
      end
    done;
    t.fast <- on
  end

let clear t =
  (* power-up fill, dirty rows only: a row holds non-zero data only if
     it was written (or force-stored / decayed, which is confined to
     fault-armed rows) since the previous clear *)
  for row = 0 to t.nrows - 1 do
    if
      Bytes.unsafe_get t.row_written row <> '\000'
      || Bytes.unsafe_get t.row_fault row <> '\000'
    then begin
      Bytes.fill t.cells (row * t.tcols) t.tcols '\000';
      Array.fill t.packed (row * t.bpc) t.bpc 0;
      Bytes.unsafe_set t.row_written row '\000';
      t.n_rows_cleared <- t.n_rows_cleared + 1
    end
  done;
  (* re-assert pinned cells; list order matches the pin-array contents
     (the last Stuck_at on a cell wins in both) *)
  List.iter
    (fun f -> match f with F.Stuck_at (c, v) -> store t (idx t c) v | _ -> ())
    t.fault_list;
  t.residue <- 0

let set_faults t faults =
  (* tear down the previous fault machinery, armed rows only *)
  for row = 0 to t.nrows - 1 do
    if Bytes.unsafe_get t.row_fault row <> '\000' then begin
      let off = row * t.tcols in
      Array.fill t.pin off t.tcols None;
      Array.fill t.no_rise off t.tcols false;
      Array.fill t.no_fall off t.tcols false;
      Array.fill t.opens off t.tcols false;
      Array.fill t.retention off t.tcols None;
      Array.fill t.state_cpl off t.tcols [];
      Array.fill t.agg_effects off t.tcols [];
      (* the row may hold non-zero bytes planted by the old config
         without [row_written] being set (pin re-assertion in [clear],
         retention decay, coupling force-stores), so flag it written:
         once [row_fault] drops, only that flag makes the final [clear]
         restore the power-up zeros *)
      mark_row_written t row;
      Bytes.unsafe_set t.row_fault row '\000'
    end
  done;
  t.fault_list <- faults;
  t.nfaults <- 0;
  List.iter
    (fun f ->
      (match f with
      | F.Stuck_at (c, v) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          t.pin.(i) <- Some v
      | F.Transition (c, up) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          if up then t.no_rise.(i) <- true else t.no_fall.(i) <- true
      | F.Stuck_open c ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          t.opens.(i) <- true
      | F.Data_retention (c, v) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          t.retention.(i) <- Some v
      | F.Coupling_inversion { aggressor; victim } ->
          let a = idx t aggressor and v = idx t victim in
          mark_row_fault t aggressor.F.row;
          mark_row_fault t victim.F.row;
          t.agg_effects.(a) <- Invert v :: t.agg_effects.(a)
      | F.Coupling_idempotent { aggressor; rising; victim; forces } ->
          let a = idx t aggressor and v = idx t victim in
          mark_row_fault t aggressor.F.row;
          mark_row_fault t victim.F.row;
          t.agg_effects.(a) <-
            Force { rising; victim = v; forces } :: t.agg_effects.(a)
      | F.State_coupling { aggressor; when_state; victim; reads_as } ->
          let a = idx t aggressor and v = idx t victim in
          (* only the victim's reads are special; plain writes to the
             aggressor stay on the fast path because the victim re-reads
             the aggressor's stored state on every access *)
          mark_row_fault t victim.F.row;
          t.state_cpl.(v) <- (a, when_state, reads_as) :: t.state_cpl.(v));
      t.nfaults <- t.nfaults + 1)
    faults;
  clear t

let faults t = t.fault_list
let set_remap t f = t.remap <- f

let set_col_remap t f =
  (match f with
  | None -> ()
  | Some g ->
      (* validate the whole map up front so the hot path can trust it *)
      for p = 0 to t.cols - 1 do
        let q = g p in
        if q < 0 || q >= t.tcols then
          invalid_arg "Model.set_col_remap: mapped column out of range"
      done);
  t.col_remap <- f

(* Coupling-driven store: respects pins (a stuck node cannot be flipped
   by crosstalk) but bypasses transition faults. *)
let force_store t i v =
  match t.pin.(i) with Some _ -> () | None -> store t i v

(* A successful state change on cell [i] fires its aggressor effects. *)
let fire_coupling t i ~old_v ~new_v =
  if old_v <> new_v then
    List.iter
      (fun eff ->
        match eff with
        | Invert victim -> force_store t victim (not (stored t victim))
        | Force { rising; victim; forces } ->
            if rising = new_v then force_store t victim forces)
      t.agg_effects.(i)

let write_bit t i v =
  if t.opens.(i) then () (* inaccessible cell *)
  else
    match t.pin.(i) with
    | Some _ -> () (* stuck node: write has no effect *)
    | None ->
        let old_v = stored t i in
        let blocked = (v && not old_v && t.no_rise.(i))
                      || ((not v) && old_v && t.no_fall.(i)) in
        if not blocked then begin
          store t i v;
          fire_coupling t i ~old_v ~new_v:v
        end

(* A state-coupling victim's sensed value: the last entry whose
   aggressor holds its trigger state wins. *)
let rec sense_coupled t v = function
  | [] -> v
  | (agg, st, reads_as) :: rest ->
      sense_coupled t (if stored t agg = st then reads_as else v) rest

let read_bit t ~io i =
  if t.opens.(i) then (t.residue lsr io) land 1 = 1
    (* SOF: sense amp keeps residue *)
  else begin
    let v = sense_coupled t (stored t i) t.state_cpl.(i) in
    t.residue <-
      (if v then t.residue lor (1 lsl io) else t.residue land lnot (1 lsl io));
    v
  end

let physical_row t row =
  match t.remap with None -> row | Some f -> f row

let check_word t w =
  if Word.width w <> t.bpw then invalid_arg "Model: word width mismatch"

(* A write lands on the fast path when the target row has no fault
   machinery armed: no pins/transition/open faults to consult and no
   aggressor effects to fire (aggressor rows are always marked).  The
   packed store makes it a single array store of the word's int. *)
let write_phys t ~row ~col w =
  check_word t w;
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if col < 0 || col >= t.bpc then invalid_arg "Model: col out of range";
  (match t.col_remap with
  | None ->
      if t.fast && (t.nfaults = 0 || not (row_is_faulty t row)) then begin
        Array.unsafe_set t.packed ((row * t.bpc) + col) (Word.to_int w);
        t.n_fast_writes <- t.n_fast_writes + 1
      end
      else
        for bit = 0 to t.bpw - 1 do
          write_bit t ((row * t.tcols) + (bit * t.bpc) + col) (Word.get w bit)
        done
  | Some f ->
      (* steering armed: every access resolves per bit through the
         column map (repaired columns land on their spare column) *)
      for bit = 0 to t.bpw - 1 do
        write_bit t ((row * t.tcols) + f ((bit * t.bpc) + col)) (Word.get w bit)
      done);
  mark_row_written t row;
  t.n_writes <- t.n_writes + 1

(* A read is fast when the row is clean.  The legacy path refreshes
   the per-I/O sense residue on every read, and on a clean row every
   I/O senses its stored bit, so the residue becomes the packed word
   itself: one array load plus one field store, even while a
   stuck-open cell elsewhere keeps the residue observable.  [of_int]
   re-masks, which is free on an already-packed value. *)
let read_phys t ~row ~col =
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if col < 0 || col >= t.bpc then invalid_arg "Model: col out of range";
  let w =
    match t.col_remap with
    | None ->
        if t.fast && (t.nfaults = 0 || not (row_is_faulty t row)) then begin
          t.n_fast_reads <- t.n_fast_reads + 1;
          let v = Array.unsafe_get t.packed ((row * t.bpc) + col) in
          t.residue <- v;
          Word.of_int ~width:t.bpw v
        end
        else begin
          (* increasing bit order preserves the per-I/O sense-residue
             update sequence of the legacy path *)
          let base = (row * t.tcols) + col in
          let v = ref 0 in
          for bit = 0 to t.bpw - 1 do
            if read_bit t ~io:bit (base + (bit * t.bpc)) then
              v := !v lor (1 lsl bit)
          done;
          Word.of_int ~width:t.bpw !v
        end
    | Some f ->
        Word.init t.bpw (fun bit ->
            read_bit t ~io:bit ((row * t.tcols) + f ((bit * t.bpc) + col)))
  in
  t.n_reads <- t.n_reads + 1;
  w

let read_word t a =
  let row = physical_row t (Org.row_of_addr t.org a) in
  read_phys t ~row ~col:(Org.col_of_addr t.org a)

let write_word t a w =
  let row = physical_row t (Org.row_of_addr t.org a) in
  write_phys t ~row ~col:(Org.col_of_addr t.org a) w

let read_row_word t ~row ~col = read_phys t ~row ~col
let write_row_word t ~row ~col w = write_phys t ~row ~col w

(* Decay is confined to retention-faulty cells, so walking the armed
   fault list replaces the legacy O(ncells) array scan; for several
   retention faults on one cell the last one wins on both paths. *)
let retention_wait t =
  List.iter
    (fun f ->
      match f with
      | F.Data_retention (c, v) ->
          let i = idx t c in
          if t.pin.(i) = None then store t i v
      | _ -> ())
    t.fault_list

let reads t = t.n_reads
let writes t = t.n_writes

type stats = {
  s_reads : int;
  s_writes : int;
  s_fast_reads : int;
  s_fast_writes : int;
  s_rows_migrated : int;
  s_rows_cleared : int;
}

let stats t =
  { s_reads = t.n_reads
  ; s_writes = t.n_writes
  ; s_fast_reads = t.n_fast_reads
  ; s_fast_writes = t.n_fast_writes
  ; s_rows_migrated = t.n_rows_migrated
  ; s_rows_cleared = t.n_rows_cleared
  }
