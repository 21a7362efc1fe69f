module F = Bisram_faults.Fault

(* Lane-sliced (PPSFP-style) batch store: bit [l] of every packed int
   is campaign trial [l]'s copy of that cell.  All stimulus is
   broadcast (a written bit is 0 or [all] across lanes), every fault is
   armed as a per-lane mask, so one int operation advances every lane
   at once.  The semantics per lane mirror [Model]'s legacy (byte)
   path exactly — the qcheck differential property in test_lanes pins
   the two engines to each other bit-for-bit. *)

type eff =
  | Invert of { victim : int; lbit : int }
  | Force of { rising : bool; victim : int; forces : bool; lbit : int }

type t = {
  org : Org.t;
  lanes : int;
  all : int; (* mask of the armed lanes: (1 lsl lanes) - 1 *)
  nrows : int;
  cols : int; (* regular physical columns *)
  tcols : int; (* row stride: cols + spare_cols (spare-column cells can
                  carry armed faults; word accesses never reach them —
                  only clean lanes are resolved here, and their
                  steering is the identity) *)
  bpc : int;
  bpw : int;
  state : int array; (* one slot per cell, bit l = lane l's value *)
  pin_mask : int array; (* lanes on which the cell is stuck *)
  pin_val : int array; (* the stuck value, within pin_mask *)
  no_rise : int array;
  no_fall : int array;
  opens : int array;
  ret_mask : int array; (* lanes with a retention fault on the cell *)
  ret_val : int array; (* the decay value, within ret_mask *)
  (* victim -> (aggressor idx, when_state, reads_as, lane bit); list
     order matches the scalar model's per-lane [state_cpl] list *)
  state_cpl : (int * bool * bool * int) list array;
  agg_effects : eff list array;
  residue : int array; (* per-I/O sense-amp residue, one lane mask each *)
  (* address decode tables: cell index of I/O 0 and physical row per
     logical address, hoisted out of the per-access hot path *)
  addr_base : int array;
  addr_row : int array;
  row_fault : Bytes.t; (* rows with any fault machinery, any lane *)
  mutable pinned : int list; (* cells with pin_mask <> 0, for [clear] *)
  mutable ret_cells : int list; (* cells with ret_mask <> 0 *)
  mutable nopens : int; (* armed stuck-open count, all lanes *)
}

let org t = t.org
let nlanes t = t.lanes
let all_mask t = t.all

let create org ~lanes =
  if not (Org.simulable org) then
    invalid_arg "Lanes.create: organization is not simulable (bpw too wide)";
  if lanes < 1 || lanes > Word.max_width then
    invalid_arg
      (Printf.sprintf "Lanes.create: lanes must be in 1..%d" Word.max_width);
  let nrows = Org.total_rows org in
  let cols = Org.cols org in
  let tcols = Org.total_cols org in
  let ncells = nrows * tcols in
  { org
  ; lanes
  ; all = (1 lsl lanes) - 1
  ; nrows
  ; cols
  ; tcols
  ; bpc = org.Org.bpc
  ; bpw = org.Org.bpw
  ; state = Array.make ncells 0
  ; pin_mask = Array.make ncells 0
  ; pin_val = Array.make ncells 0
  ; no_rise = Array.make ncells 0
  ; no_fall = Array.make ncells 0
  ; opens = Array.make ncells 0
  ; ret_mask = Array.make ncells 0
  ; ret_val = Array.make ncells 0
  ; state_cpl = Array.make ncells []
  ; agg_effects = Array.make ncells []
  ; residue = Array.make org.Org.bpw 0
  ; addr_base =
      Array.init org.Org.words (fun a ->
          (Org.row_of_addr org a * tcols) + Org.col_of_addr org a)
  ; addr_row = Array.init org.Org.words (fun a -> Org.row_of_addr org a)
  ; row_fault = Bytes.make nrows '\000'
  ; pinned = []
  ; ret_cells = []
  ; nopens = 0
  }

let idx t (c : F.cell) =
  if c.F.row < 0 || c.F.row >= t.nrows then
    invalid_arg "Lanes: fault row out of range";
  if c.F.col < 0 || c.F.col >= t.tcols then
    invalid_arg "Lanes: fault col out of range";
  (c.F.row * t.tcols) + c.F.col

let row_is_faulty t row = Bytes.unsafe_get t.row_fault row <> '\000'
let mark_row_fault t row = Bytes.unsafe_set t.row_fault row '\001'

(* Per-lane bit update helpers: set bit [lbit] of slot [i] to [v]. *)
let set_lane_bit a i lbit v =
  a.(i) <- (if v then a.(i) lor lbit else a.(i) land lnot lbit)

let arm t ~lane faults =
  if lane < 0 || lane >= t.lanes then invalid_arg "Lanes.arm: lane out of range";
  let lbit = 1 lsl lane in
  List.iter
    (fun f ->
      match f with
      | F.Stuck_at (c, v) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          if t.pin_mask.(i) = 0 then t.pinned <- i :: t.pinned;
          t.pin_mask.(i) <- t.pin_mask.(i) lor lbit;
          set_lane_bit t.pin_val i lbit v
      | F.Transition (c, up) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          if up then t.no_rise.(i) <- t.no_rise.(i) lor lbit
          else t.no_fall.(i) <- t.no_fall.(i) lor lbit
      | F.Stuck_open c ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          t.opens.(i) <- t.opens.(i) lor lbit;
          t.nopens <- t.nopens + 1
      | F.Data_retention (c, v) ->
          let i = idx t c in
          mark_row_fault t c.F.row;
          if t.ret_mask.(i) = 0 then t.ret_cells <- i :: t.ret_cells;
          t.ret_mask.(i) <- t.ret_mask.(i) lor lbit;
          set_lane_bit t.ret_val i lbit v
      | F.Coupling_inversion { aggressor; victim } ->
          let a = idx t aggressor and v = idx t victim in
          mark_row_fault t aggressor.F.row;
          mark_row_fault t victim.F.row;
          t.agg_effects.(a) <- Invert { victim = v; lbit } :: t.agg_effects.(a)
      | F.Coupling_idempotent { aggressor; rising; victim; forces } ->
          let a = idx t aggressor and v = idx t victim in
          mark_row_fault t aggressor.F.row;
          mark_row_fault t victim.F.row;
          t.agg_effects.(a) <-
            Force { rising; victim = v; forces; lbit } :: t.agg_effects.(a)
      | F.State_coupling { aggressor; when_state; victim; reads_as } ->
          let a = idx t aggressor and v = idx t victim in
          (* like the scalar model, only the victim's reads are special:
             the victim re-reads the aggressor's stored state on access *)
          mark_row_fault t victim.F.row;
          t.state_cpl.(v) <- (a, when_state, reads_as, lbit) :: t.state_cpl.(v))
    faults

let clear t =
  Array.fill t.state 0 (Array.length t.state) 0;
  (* re-assert pinned cells; for several stuck-ats on one (cell, lane)
     the last armed won in pin_val, same as the scalar re-assert order *)
  List.iter
    (fun i -> t.state.(i) <- t.pin_val.(i) land t.pin_mask.(i))
    t.pinned;
  Array.fill t.residue 0 (Array.length t.residue) 0

let retention_wait t =
  List.iter
    (fun i ->
      (* decay, pin-respecting, lane-wise *)
      let m = t.ret_mask.(i) land lnot t.pin_mask.(i) in
      t.state.(i) <- (t.state.(i) land lnot m) lor (t.ret_val.(i) land m))
    t.ret_cells

(* A successful state change on cell [i] fires its aggressor effects.
   Entries are walked in the same order the scalar model walks them
   (head = last armed); each effect re-reads the victim's fresh state
   and respects pins but not transition faults, and never cascades. *)
let fire t i ~changed ~nv =
  List.iter
    (fun eff ->
      match eff with
      | Invert { victim; lbit } ->
          let fl = changed land lbit in
          if fl <> 0 then begin
            let w = fl land lnot t.pin_mask.(victim) in
            t.state.(victim) <- t.state.(victim) lxor w
          end
      | Force { rising; victim; forces; lbit } ->
          let fired =
            changed land lbit land (if rising then nv else lnot nv)
          in
          if fired <> 0 then begin
            let w = fired land lnot t.pin_mask.(victim) in
            t.state.(victim) <-
              (if forces then t.state.(victim) lor w
               else t.state.(victim) land lnot w)
          end)
    t.agg_effects.(i)

(* Lane-wise legacy write: open and pinned lanes keep their value, a
   transition-faulted lane blocks the offending edge, every other lane
   stores [d]; lanes whose stored value actually changed fire the
   cell's coupling effects. *)
let write_cell t i d =
  let old_v = t.state.(i) in
  let blocked =
    (t.no_rise.(i) land d land lnot old_v)
    lor (t.no_fall.(i) land lnot d land old_v)
  in
  let keep = t.opens.(i) lor t.pin_mask.(i) lor blocked in
  let nv = (old_v land keep) lor (d land lnot keep) in
  if nv <> old_v || t.agg_effects.(i) <> [] then begin
    t.state.(i) <- nv;
    let changed = old_v lxor nv in
    if changed <> 0 then fire t i ~changed ~nv
  end

(* Lane-wise legacy read of cell [i] on I/O [io]: state-coupling
   entries override the stored value exactly like the scalar fold
   (the earliest-armed matching entry wins), open lanes return the
   sense residue untouched, every other lane refreshes it. *)
let read_cell t ~io i =
  let v = ref t.state.(i) in
  (match t.state_cpl.(i) with
  | [] -> ()
  | l ->
      List.iter
        (fun (agg, st, reads_as, lbit) ->
          if (t.state.(agg) land lbit <> 0) = st then
            v := (if reads_as then !v lor lbit else !v land lnot lbit))
        l);
  let op = t.opens.(i) in
  let out = (t.residue.(io) land op) lor (!v land lnot op) in
  t.residue.(io) <- out;
  out

(* ------------------------------------------------------------------ *)
(* word access (no remap: the lane engine only resolves clean lanes,
   whose TLB is empty and whose remap is the identity) *)

(* Broadcast expansion of a data word: element [b] is the lane mask of
   data bit [b] — [all] or [0].  The march engine expands each op's
   word once per element, so the per-address loops below touch only
   int arrays. *)
let expand t w =
  if Word.width w <> t.bpw then invalid_arg "Lanes: word width mismatch";
  Array.init t.bpw (fun bit -> if Word.get w bit then t.all else 0)

let write_exp t a exp =
  let base = Array.unsafe_get t.addr_base a in
  if row_is_faulty t (Array.unsafe_get t.addr_row a) then
    for bit = 0 to t.bpw - 1 do
      write_cell t (base + (bit * t.bpc)) (Array.unsafe_get exp bit)
    done
  else
    for bit = 0 to t.bpw - 1 do
      Array.unsafe_set t.state (base + (bit * t.bpc)) (Array.unsafe_get exp bit)
    done

(* Read-and-compare: returns the mask of lanes whose word differs from
   the expanded expected word — the lane-wise comparator/MISR
   reduction.  The fast path (clean row, no stuck-open in any lane)
   skips the residue refresh: with no open cell the residue is
   unobservable. *)
let mismatch_exp t a exp =
  let base = Array.unsafe_get t.addr_base a in
  let acc = ref 0 in
  if t.nopens = 0 && not (row_is_faulty t (Array.unsafe_get t.addr_row a)) then
    for bit = 0 to t.bpw - 1 do
      acc :=
        !acc
        lor (Array.unsafe_get t.state (base + (bit * t.bpc))
            lxor Array.unsafe_get exp bit)
    done
  else
    for bit = 0 to t.bpw - 1 do
      acc :=
        !acc
        lor (read_cell t ~io:bit (base + (bit * t.bpc))
            lxor Array.unsafe_get exp bit)
    done;
  !acc land t.all

let write_word t a w = write_exp t a (expand t w)
let read_mismatch t a expected = mismatch_exp t a (expand t expected)

(* Per-I/O lane values of one word read (allocates; used by the
   differential tests, not the march hot path).  Side effects are those
   of exactly one word read. *)
let read_bits t a =
  let base = t.addr_base.(a) in
  if t.nopens = 0 && not (row_is_faulty t t.addr_row.(a)) then
    Array.init t.bpw (fun bit -> t.state.(base + (bit * t.bpc)))
  else Array.init t.bpw (fun bit -> read_cell t ~io:bit (base + (bit * t.bpc)))
