(* Tests for organization, words and the fault-aware SRAM model. *)

module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Model = Bisram_sram.Model
module Timing = Bisram_sram.Timing
module F = Bisram_faults.Fault
module Pr = Bisram_tech.Process

let word = Alcotest.testable Word.pp Word.equal
let cell r c = { F.row = r; F.col = c }

(* ------------------------------------------------------------------ *)
(* Org *)

let test_org_derived () =
  let o = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:4 () in
  Alcotest.(check int) "rows" 1024 (Org.rows o);
  Alcotest.(check int) "total rows" 1028 (Org.total_rows o);
  Alcotest.(check int) "cols" 16 (Org.cols o);
  Alcotest.(check int) "bits" 16384 (Org.bits o);
  Alcotest.(check (float 1e-9)) "kilobits" 16.0 (Org.kilobits o);
  Alcotest.(check int) "spare words" 16 (Org.spare_words o)

let test_org_validation () =
  let bad f = Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
      try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  bad (fun () -> Org.make ~words:100 ~bpw:4 ~bpc:3 ());
  bad (fun () -> Org.make ~words:100 ~bpw:3 ~bpc:4 ());
  bad (fun () -> Org.make ~words:10 ~bpw:4 ~bpc:4 ());
  bad (fun () -> Org.make ~words:64 ~bpw:4 ~bpc:4 ~spares:5 ())

let test_org_address_split () =
  let o = Org.make ~words:64 ~bpw:8 ~bpc:4 () in
  (* addr = row*bpc + col *)
  Alcotest.(check int) "row of 13" 3 (Org.row_of_addr o 13);
  Alcotest.(check int) "col of 13" 1 (Org.col_of_addr o 13);
  Alcotest.(check int) "roundtrip" 13 (Org.addr_of o ~row:3 ~col:1);
  (* bit i of mux position c sits at column i*bpc + c *)
  Alcotest.(check int) "cell col" 9 (Org.cell_col o ~col:1 ~bit:2)

let prop_org_addr_roundtrip =
  QCheck.Test.make ~name:"address decomposition roundtrips" ~count:300
    QCheck.(int_range 0 4095)
    (fun a ->
      let o = Org.make ~words:4096 ~bpw:4 ~bpc:8 () in
      Org.addr_of o ~row:(Org.row_of_addr o a) ~col:(Org.col_of_addr o a) = a)

(* ------------------------------------------------------------------ *)
(* Word *)

let test_word_basics () =
  let w = Word.of_int ~width:8 0b10110010 in
  Alcotest.(check bool) "bit1" true (Word.get w 1);
  Alcotest.(check bool) "bit0" false (Word.get w 0);
  Alcotest.(check string) "to_string lsb first" "01001101" (Word.to_string w);
  Alcotest.check word "lnot" (Word.of_int ~width:8 0b01001101) (Word.lnot_ w);
  Alcotest.(check (list int)) "diff" [ 0; 7 ]
    (Word.diff w (Word.of_int ~width:8 0b00110011))

let test_word_set () =
  let w = Word.zero 4 in
  let w' = Word.set w 2 true in
  Alcotest.(check bool) "functional update" false (Word.get w 2);
  Alcotest.(check bool) "new value" true (Word.get w' 2)

let test_word_width_bounds () =
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  (* max_width itself is fine, one past it is not *)
  Alcotest.check word "ones at max_width"
    (Word.of_int ~width:Word.max_width max_int)
    (Word.ones Word.max_width);
  Alcotest.(check int) "max_width packs to max_int" max_int
    (Word.to_int (Word.ones Word.max_width));
  Alcotest.(check bool) "width 63 rejected" true
    (raises (fun () -> Word.zero (Word.max_width + 1)));
  Alcotest.(check bool) "negative width rejected" true
    (raises (fun () -> Word.zero (-1)));
  (* width mismatch is a caller bug, not inequality *)
  Alcotest.(check bool) "equal raises on width mismatch" true
    (raises (fun () -> Word.equal (Word.zero 4) (Word.zero 5)));
  Alcotest.(check bool) "diff raises on width mismatch" true
    (raises (fun () -> Word.diff (Word.zero 4) (Word.zero 5)))

(* Every Word operation checked against a bool-array reference model,
   across the full width range including the 62-bit boundary.  The
   packed representation's masking discipline (no stray high bits, so
   [equal] can be a plain int compare) is exactly what this pins. *)
let prop_word_vs_reference =
  QCheck.Test.make ~name:"packed word agrees with bool-array reference"
    ~count:500
    QCheck.(quad (int_range 1 62) int int small_nat)
    (fun (width, v1, v2, i) ->
      let i = i mod width in
      let ref_of v = Array.init width (fun b -> (v lsr b) land 1 = 1) in
      let r1 = ref_of v1 and r2 = ref_of v2 in
      let w1 = Word.of_int ~width v1 and w2 = Word.of_int ~width v2 in
      let agree w r = Word.to_bits w = r in
      agree w1 r1 && agree w2 r2
      (* init/of_bits/to_bits roundtrip *)
      && agree (Word.init width (Array.get r1)) r1
      && agree (Word.of_bits r1) r1
      && Word.width w1 = width
      (* get / functional set *)
      && Word.get w1 i = r1.(i)
      && agree (Word.set w1 i true) (Array.mapi (fun b x -> b = i || x) r1)
      && agree (Word.set w1 i false) (Array.mapi (fun b x -> b <> i && x) r1)
      (* complement *)
      && agree (Word.lnot_ w1) (Array.map not r1)
      (* equality = array equality at the same width *)
      && Word.equal w1 w2 = (r1 = r2)
      (* diff = mismatching positions, ascending *)
      && Word.diff w1 w2
         = List.filter (fun b -> r1.(b) <> r2.(b))
             (List.init width (fun b -> b))
      (* string form, bit 0 first *)
      && Word.to_string w1
         = String.init width (fun b -> if r1.(b) then '1' else '0')
      (* to_int inverts of_int under the width mask *)
      && Word.to_int w1 = v1 land ((1 lsl width) - 1)
      && agree (Word.zero width) (Array.make width false)
      && agree (Word.ones width) (Array.make width true))

(* ------------------------------------------------------------------ *)
(* Model: fault-free behaviour *)

let small () = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ()
let spare_col_org () = Org.make ~words:64 ~bpw:8 ~bpc:4 ~spares:4 ~spare_cols:2 ()

let test_model_rw () =
  let m = Model.create (small ()) in
  let w = Word.of_int ~width:8 0xA5 in
  Model.write_word m 17 w;
  Alcotest.check word "read back" w (Model.read_word m 17);
  Alcotest.check word "other addr untouched" (Word.zero 8) (Model.read_word m 18);
  Alcotest.(check int) "write count" 1 (Model.writes m);
  Alcotest.(check int) "read count" 2 (Model.reads m)

let test_model_all_addresses_independent () =
  let org = small () in
  let m = Model.create org in
  for a = 0 to org.Org.words - 1 do
    Model.write_word m a (Word.of_int ~width:8 (a land 0xFF))
  done;
  let ok = ref true in
  for a = 0 to org.Org.words - 1 do
    if not (Word.equal (Model.read_word m a) (Word.of_int ~width:8 (a land 0xFF)))
    then ok := false
  done;
  Alcotest.(check bool) "all distinct" true !ok

let test_model_clear () =
  let m = Model.create (small ()) in
  Model.write_word m 5 (Word.ones 8);
  Model.clear m;
  Alcotest.check word "cleared" (Word.zero 8) (Model.read_word m 5)

let test_model_rejects_unsimulable_org () =
  (* bpw = 64 is a legal organization (layout flows accept it) but
     exceeds the packed simulator's word width *)
  let o = Org.make ~words:64 ~bpw:64 ~bpc:4 () in
  Alcotest.(check bool) "org constructs" true (Org.bits o = 4096);
  Alcotest.(check bool) "not simulable" false (Org.simulable o);
  Alcotest.(check bool) "simulable at 32" true
    (Org.simulable (Org.make ~words:64 ~bpw:32 ~bpc:4 ()));
  Alcotest.(check bool) "Model.create rejects it" true
    (match Model.create o with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Model: fault behaviour.  Bit 2 of mux col 1 = physical column 2*4+1=9. *)

let test_stuck_at () =
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Stuck_at (cell 3 9, true) ];
  (* addr with row 3, col 1 = 13; bit 2 is the faulty cell *)
  Alcotest.(check bool) "reads 1 initially" true (Word.get (Model.read_word m 13) 2);
  Model.write_word m 13 (Word.zero 8);
  Alcotest.(check bool) "still 1 after w0" true (Word.get (Model.read_word m 13) 2);
  (* neighbour bit unaffected *)
  Alcotest.(check bool) "bit 3 clean" false (Word.get (Model.read_word m 13) 3)

let test_transition_fault () =
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Transition (cell 3 9, true) ] (* cannot rise *);
  Model.write_word m 13 (Word.ones 8);
  Alcotest.(check bool) "bit stuck low" false (Word.get (Model.read_word m 13) 2);
  Alcotest.(check bool) "others rose" true (Word.get (Model.read_word m 13) 3);
  (* down transitions work: a down-TF cell can rise *)
  let m2 = Model.create (small ()) in
  Model.set_faults m2 [ F.Transition (cell 3 9, false) ];
  Model.write_word m2 13 (Word.ones 8);
  Alcotest.(check bool) "rose" true (Word.get (Model.read_word m2 13) 2);
  Model.write_word m2 13 (Word.zero 8);
  Alcotest.(check bool) "cannot fall" true (Word.get (Model.read_word m2 13) 2)

let test_stuck_open () =
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Stuck_open (cell 3 9) ];
  (* write all-1 everywhere in row 3 col 1; the open cell keeps nothing;
     read returns the sense-amp residue from the previous read on I/O 2 *)
  Model.write_word m 13 (Word.ones 8);
  (* read another address first: residue for io 2 = that cell's value 0 *)
  ignore (Model.read_word m 14);
  Alcotest.(check bool) "reads residue 0" false (Word.get (Model.read_word m 13) 2);
  (* now make the residue 1 by reading a 1 elsewhere *)
  Model.write_word m 14 (Word.ones 8);
  ignore (Model.read_word m 14);
  Alcotest.(check bool) "reads residue 1" true (Word.get (Model.read_word m 13) 2)

let test_coupling_inversion () =
  let m = Model.create (small ()) in
  (* aggressor phys col 9 (bit 2 of col 1); victim col 10 (bit 2 of col 2) *)
  Model.set_faults m
    [ F.Coupling_inversion { aggressor = cell 3 9; victim = cell 3 10 } ];
  (* victim: row 3 col 2 = addr 14, bit 2 *)
  Alcotest.(check bool) "victim starts 0" false (Word.get (Model.read_word m 14) 2);
  (* flip aggressor: write 1 to addr 13 bit 2 *)
  Model.write_word m 13 (Word.of_int ~width:8 0b100);
  Alcotest.(check bool) "victim inverted" true (Word.get (Model.read_word m 14) 2);
  (* writing the same value again is no transition: no further flip *)
  Model.write_word m 13 (Word.of_int ~width:8 0b100);
  Alcotest.(check bool) "no double flip" true (Word.get (Model.read_word m 14) 2)

let test_coupling_idempotent () =
  let m = Model.create (small ()) in
  Model.set_faults m
    [ F.Coupling_idempotent
        { aggressor = cell 3 9; rising = true; victim = cell 3 10; forces = true }
    ];
  Model.write_word m 14 (Word.zero 8);
  (* falling aggressor transition does nothing *)
  Model.write_word m 13 (Word.of_int ~width:8 0b100);
  Alcotest.(check bool) "rising forces 1" true (Word.get (Model.read_word m 14) 2);
  Model.write_word m 14 (Word.zero 8);
  Model.write_word m 13 (Word.zero 8);
  Alcotest.(check bool) "falling does not force" false
    (Word.get (Model.read_word m 14) 2)

let test_state_coupling () =
  let m = Model.create (small ()) in
  Model.set_faults m
    [ F.State_coupling
        { aggressor = cell 3 9; when_state = true; victim = cell 3 10; reads_as = false }
    ];
  Model.write_word m 14 (Word.of_int ~width:8 0b100) (* victim = 1 *);
  Alcotest.(check bool) "reads true while aggressor 0" true
    (Word.get (Model.read_word m 14) 2);
  Model.write_word m 13 (Word.of_int ~width:8 0b100) (* aggressor = 1 *);
  Alcotest.(check bool) "masked while aggressor 1" false
    (Word.get (Model.read_word m 14) 2);
  Model.write_word m 13 (Word.zero 8);
  Alcotest.(check bool) "restored" true (Word.get (Model.read_word m 14) 2)

let test_data_retention () =
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Data_retention (cell 3 9, false) ];
  Model.write_word m 13 (Word.ones 8);
  Alcotest.(check bool) "holds before wait" true (Word.get (Model.read_word m 13) 2);
  Model.retention_wait m;
  Alcotest.(check bool) "decays after wait" false (Word.get (Model.read_word m 13) 2);
  Alcotest.(check bool) "healthy bit holds" true (Word.get (Model.read_word m 13) 3)

let test_set_faults_reuse_restores_powerup_zeros () =
  (* Reusing one model across [set_faults] calls (as Coverage.evaluate
     and Module_model.inject do): data planted by the old config — the
     stuck-at pin re-asserted by [clear], retention decay, coupling
     force-stores — must not leak into the new config.  Regression for
     the teardown forgetting to flag previously armed rows as dirty. *)
  let m = Model.create (small ()) in
  Model.set_faults m [ F.Stuck_at (cell 3 9, true) ];
  Alcotest.(check bool) "pin reads 1 under old config" true
    (Word.get (Model.read_word m 13) 2);
  (* second config on a different row; read row 3 without writing it *)
  Model.set_faults m [ F.Transition (cell 1 0, true) ];
  Alcotest.check word "old pinned row back to power-up zeros" (Word.zero 8)
    (Model.read_word m 13);
  (* same leak through retention decay: decay row 3, then re-arm *)
  Model.set_faults m [ F.Data_retention (cell 3 9, true) ];
  Model.retention_wait m;
  Alcotest.(check bool) "decayed to 1" true (Word.get (Model.read_word m 13) 2);
  Model.set_faults m [];
  Alcotest.check word "decayed row back to power-up zeros" (Word.zero 8)
    (Model.read_word m 13)

let test_remap () =
  let org = small () in
  let m = Model.create org in
  (* kill row 3 completely, then remap logical row 3 to spare row 16 *)
  Model.set_faults m [ F.Stuck_at (cell 3 9, true) ];
  Model.set_remap m (Some (fun row -> if row = 3 then Org.rows org else row));
  Model.write_word m 13 (Word.zero 8);
  Alcotest.check word "reads clean via spare" (Word.zero 8) (Model.read_word m 13);
  (* physical row 3 is untouched by the remapped write *)
  Alcotest.(check bool) "stuck cell still 1 physically" true
    (Word.get (Model.read_row_word m ~row:3 ~col:1) 2)

let test_faulty_spare () =
  let org = small () in
  let m = Model.create org in
  let spare_row = Org.rows org in
  Model.set_faults m [ F.Stuck_at (cell spare_row 9, true) ];
  Model.set_remap m (Some (fun row -> if row = 3 then spare_row else row));
  Model.write_word m 13 (Word.zero 8);
  Alcotest.(check bool) "fault visible through remap" true
    (Word.get (Model.read_word m 13) 2)

(* ------------------------------------------------------------------ *)
(* Timing *)

let test_timing_magnitudes () =
  let org = Org.make ~words:4096 ~bpw:128 ~bpc:8 () in
  let b = Timing.access_time Pr.cda_07u3m1p org ~drive:2.0 in
  let t = Timing.total b in
  Alcotest.(check bool)
    (Printf.sprintf "access %.2f ns in 0.5..10" (t *. 1e9))
    true
    (t > 0.5e-9 && t < 10e-9)

let test_timing_monotone_rows () =
  let p = Pr.cda_07u3m1p in
  let t1 =
    Timing.total
      (Timing.access_time p (Org.make ~words:1024 ~bpw:8 ~bpc:4 ()) ~drive:2.0)
  in
  let t2 =
    Timing.total
      (Timing.access_time p (Org.make ~words:16384 ~bpw:8 ~bpc:4 ()) ~drive:2.0)
  in
  Alcotest.(check bool) "bigger array slower" true (t2 > t1)

let test_write_and_interface_timing () =
  let p = Pr.cda_07u3m1p in
  let org = Org.make ~words:4096 ~bpw:32 ~bpc:8 () in
  let wt = Timing.write_time p org ~drive:2.0 in
  let rt = Timing.total (Timing.access_time p org ~drive:2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "write %.2f ns positive and comparable to read %.2f ns"
       (wt *. 1e9) (rt *. 1e9))
    true
    (wt > 0.1e-9 && wt < 3.0 *. rt);
  let itf = Timing.interface p org ~drive:2.0 in
  Alcotest.(check bool) "setups positive" true
    (itf.Timing.address_setup > 0.0 && itf.Timing.data_setup > 0.0
    && itf.Timing.hold >= 0.0);
  Alcotest.(check bool) "address setup below access" true
    (itf.Timing.address_setup < rt)

let test_timing_drive_helps () =
  let p = Pr.cda_07u3m1p in
  let org = Org.make ~words:4096 ~bpw:32 ~bpc:8 () in
  let t1 = (Timing.access_time p org ~drive:1.0).Timing.address_buffer in
  let t4 = (Timing.access_time p org ~drive:4.0).Timing.address_buffer in
  Alcotest.(check bool) "bigger drive faster address buffer" true (t4 < t1)

let prop_model_rw_roundtrip =
  QCheck.Test.make ~name:"fault-free write/read roundtrip" ~count:200
    QCheck.(pair (int_range 0 63) (int_range 0 255))
    (fun (addr, v) ->
      let m = Model.create (small ()) in
      let w = Word.of_int ~width:8 v in
      Model.write_word m addr w;
      Word.equal w (Model.read_word m addr))

(* Differential check of the fast path against the legacy per-cell
   machinery: same faults, same operation sequence, every read and the
   access counters must agree.  Half the cases draw random fault sets of
   the default mix anywhere (spare rows included; n = 0 is fault-free).
   The other half confine faults of all seven classes to one or two rows
   (spare rows included), so fault-masked and plain bits share words,
   and aim most accesses at those rows.  Every access takes the int API
   on one side and the word API on the other, and a [`Pair] reads two
   words back to back, so a stuck-open cell senses the residue the
   other word's read left. *)
let prop_fast_path_equals_legacy =
  QCheck.Test.make ~name:"fast path agrees with legacy path" ~count:300
    QCheck.(triple (int_range 0 100_000) (int_range 0 6) bool)
    (fun (seed, n, confined) ->
      let module I = Bisram_faults.Injection in
      let org = small () in
      let rng = Random.State.make [| 0xFA57; seed |] in
      let int k = Random.State.int rng k and flip () = Random.State.bool rng in
      let rows = Org.total_rows org and cols = Org.cols org in
      let spare = Org.rows org and bpc = org.Org.bpc in
      let hot =
        if confined then List.init (1 + int 2) (fun _ -> int rows) else []
      in
      let one_of l = List.nth l (int (List.length l)) in
      let faults =
        if not confined then I.inject rng ~rows ~cols ~mix:I.default_mix ~n
        else
          let pick () = cell (one_of hot) (int cols) in
          List.init (max 1 n) (fun _ ->
              let c = pick () in
              match int 7 with
              | 0 -> F.Stuck_at (c, flip ())
              | 1 -> F.Transition (c, flip ())
              | 2 -> F.Stuck_open c
              | 3 -> F.Data_retention (c, flip ())
              | 4 -> F.Coupling_inversion { aggressor = c; victim = pick () }
              | 5 ->
                  F.Coupling_idempotent
                    { aggressor = c; rising = flip (); victim = pick ()
                    ; forces = flip () }
              | _ ->
                  F.State_coupling
                    { aggressor = c; when_state = flip (); victim = pick ()
                    ; reads_as = flip () })
      in
      let hot_regular = List.filter (fun r -> r < spare) hot
      and hot_spare = List.filter (fun r -> r >= spare) hot in
      let addr () =
        if hot_regular <> [] && int 4 > 0 then
          (one_of hot_regular * bpc) + int bpc
        else int org.Org.words
      in
      let spare_row () =
        if hot_spare <> [] && flip () then one_of hot_spare
        else spare + int org.Org.spares
      in
      let ops =
        List.init 250 (fun _ ->
            match int 12 with
            | 0 -> `Wait
            | 1 -> `Clear
            | 2 -> `Spare_w (spare_row (), int bpc, int 256)
            | 3 -> `Spare_r (spare_row (), int bpc)
            | 4 | 5 | 6 -> `W (addr (), int 256, flip ())
            | 7 -> `Pair (addr (), addr (), flip ())
            | _ -> `R (addr (), flip ()))
      in
      let drive fast =
        let m = Model.create org in
        Model.set_fast_path m fast;
        Model.set_faults m faults;
        (* the int API on one side, the word API on the other *)
        let read a via_int =
          if via_int = fast then Model.read_int m a
          else Word.to_int (Model.read_word m a)
        in
        let log =
          List.concat_map
            (fun op ->
              match op with
              | `W (a, v, via_int) ->
                  if via_int = fast then Model.write_int m a v
                  else Model.write_word m a (Word.of_int ~width:8 v);
                  []
              | `R (a, via_int) -> [ read a via_int ]
              | `Pair (a, b, via_int) ->
                  let x = read a via_int in
                  [ x; read b (not via_int) ]
              | `Spare_w (row, col, v) ->
                  Model.write_row_word m ~row ~col (Word.of_int ~width:8 v);
                  []
              | `Spare_r (row, col) ->
                  [ Word.to_int (Model.read_row_word m ~row ~col) ]
              | `Wait ->
                  Model.retention_wait m;
                  []
              | `Clear ->
                  Model.clear m;
                  [])
            ops
        in
        (log, Model.reads m, Model.writes m)
      in
      drive true = drive false)

(* The int API keeps the word API's guards: an out-of-range address
   and a value wider than the word raise, as a wrong-width word does. *)
let test_int_api_guards () =
  let org = small () in
  let m = Model.create org in
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun a ->
      raises (Printf.sprintf "read_int %d" a) (fun () -> Model.read_int m a);
      raises (Printf.sprintf "write_int %d" a) (fun () ->
          Model.write_int m a 0);
      raises (Printf.sprintf "read_word %d" a) (fun () -> Model.read_word m a);
      raises (Printf.sprintf "write_word %d" a) (fun () ->
          Model.write_word m a (Word.zero 8)))
    [ -1; org.Org.words ];
  raises "write_int 9-bit value" (fun () -> Model.write_int m 0 256);
  raises "write_int negative value" (fun () -> Model.write_int m 0 (-1));
  raises "write_word 4-bit word" (fun () -> Model.write_word m 0 (Word.zero 4));
  Model.write_int m 5 0xA5;
  Alcotest.(check int) "int round trip" 0xA5 (Model.read_int m 5);
  Alcotest.check word "word view" (Word.of_int ~width:8 0xA5)
    (Model.read_word m 5)

(* A stuck-open cell no longer pushes the rest of the array off the
   fast path: a read of a clean row is served packed, and it still
   leaves the sensed word as the per-I/O residue that the open cell on
   the same I/O reads back next. *)
let test_stuck_open_fast_read () =
  let org = small () in
  (* open cell on row 2, I/O 1, mux column 1 *)
  let faults = [ F.Stuck_open (cell 2 ((1 * org.Org.bpc) + 1)) ] in
  let drive fast =
    let m = Model.create org in
    Model.set_fast_path m fast;
    Model.set_faults m faults;
    Model.write_row_word m ~row:5 ~col:1 (Word.of_int ~width:8 0b10);
    Model.write_row_word m ~row:6 ~col:1 (Word.zero 8);
    let fast_before = (Model.stats m).Model.s_fast_reads in
    let r5 = Model.read_row_word m ~row:5 ~col:1 in
    let fast_after = (Model.stats m).Model.s_fast_reads in
    let open_hi = Model.read_row_word m ~row:2 ~col:1 in
    let r6 = Model.read_row_word m ~row:6 ~col:1 in
    let open_lo = Model.read_row_word m ~row:2 ~col:1 in
    (fast_after - fast_before, [ r5; open_hi; r6; open_lo ])
  in
  let fast_reads, reads = drive true in
  Alcotest.(check int) "clean-row read is fast" 1 fast_reads;
  (match reads with
  | [ _; open_hi; _; open_lo ] ->
      Alcotest.(check bool) "open cell reads row 5's bit" true
        (Word.get open_hi 1);
      Alcotest.(check bool) "then row 6's bit" false (Word.get open_lo 1)
  | _ -> assert false);
  Alcotest.(check (list word)) "same reads as the legacy path"
    (snd (drive false)) reads

(* Same differential with the BISR remap in the loop: ops install and
   remove logical-to-spare row translations and column steering
   mid-stream, plus fast-path toggles (switching the access path
   mid-stream must be silent), so reads through a remap of clean and
   faulty rows, and through steered columns, must agree byte for byte
   with the legacy machinery.  The array is the small org (steering
   between regular columns) or one with two spare columns (steering
   onto spare-column cells that may carry faults themselves).  On the
   latter the ops open by steering a regular column onto one faulty
   spare-column cell's column and writing and reading the word that
   reaches it (through a row remap when the cell is on a spare row),
   so a steered word must consult that cell's fault flags. *)
let prop_fast_path_equals_legacy_remap =
  QCheck.Test.make ~name:"fast path agrees with legacy path under remap"
    ~count:150
    QCheck.(pair (int_range 0 100_000) (int_range 0 5))
    (fun (seed, n) ->
      let module I = Bisram_faults.Injection in
      let rng = Random.State.make [| 0x4E4A; seed |] in
      let org = if Random.State.bool rng then small () else spare_col_org () in
      let cols = Org.cols org and spare_cols = org.Org.spare_cols in
      (* a steered column lands on a spare column when there is one *)
      let steer_target () =
        if spare_cols = 0 then Random.State.int rng cols
        else cols + Random.State.int rng spare_cols
      in
      let spare_cells =
        List.init
          (if spare_cols = 0 then 0 else 1 + Random.State.int rng 2)
          (fun _ ->
            { F.row = Random.State.int rng (Org.total_rows org)
            ; col = cols + Random.State.int rng spare_cols
            })
      in
      let faults =
        I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.total_cols org)
          ~mix:I.default_mix ~n
        @ List.map
            (fun c ->
              match Random.State.int rng 3 with
              | 0 -> F.Stuck_at (c, Random.State.bool rng)
              | 1 -> F.Transition (c, Random.State.bool rng)
              | _ -> F.Stuck_open c)
            spare_cells
      in
      let spare = Org.rows org in
      (* steer column [c] onto the first faulty spare-column cell's
         column, then write [v], its complement and [v] again to the
         word that reaches the cell, reading it back after each write:
         the steered bit rises and falls from power-up zero *)
      let hot_ops =
        match spare_cells with
        | [] -> []
        | { F.row; col = q } :: _ ->
            let c = Random.State.int rng cols in
            let lrow, remap =
              if row < spare then (row, [])
              else
                let r = Random.State.int rng spare in
                (r, [ `Remap (r, row - spare) ])
            in
            let a = (lrow * org.Org.bpc) + (c mod org.Org.bpc) in
            let v = Random.State.int rng 256 in
            (`Steer (c, q) :: remap)
            @ List.concat_map
                (fun v -> [ `W (a, v); `R a ])
                [ v; v lxor 255; v ]
      in
      let ops =
        hot_ops
        @ List.init 300 (fun _ ->
            match Random.State.int rng 14 with
            | 0 -> `Wait
            | 1 -> `Clear
            | 2 ->
                `Remap
                  ( Random.State.int rng (Org.rows org)
                  , Random.State.int rng org.Org.spares )
            | 3 -> `Unmap
            | 4 -> `Toggle
            | 12 ->
                `Steer (Random.State.int rng cols, steer_target ())
            | 13 -> `Unsteer
            | 5 | 6 | 7 ->
                `W (Random.State.int rng org.Org.words,
                    Random.State.int rng 256)
            | _ -> `R (Random.State.int rng org.Org.words))
      in
      let drive fast =
        let m = Model.create org in
        Model.set_fast_path m fast;
        Model.set_faults m faults;
        let on = ref fast and steered = ref [] in
        let log =
          List.filter_map
            (fun op ->
              match op with
              | `W (a, v) ->
                  Model.write_word m a (Word.of_int ~width:8 v);
                  None
              | `R a -> Some (Word.to_string (Model.read_word m a))
              | `Remap (r, k) ->
                  Model.set_remap m
                    (Some (fun row -> if row = r then spare + k else row));
                  None
              | `Unmap ->
                  Model.set_remap m None;
                  None
              | `Steer (c, q) ->
                  let pairs = (c, q) :: !steered in
                  steered := pairs;
                  Model.set_col_remap m
                    (Some
                       (fun c ->
                         match List.assoc_opt c pairs with
                         | Some q -> q
                         | None -> c));
                  None
              | `Unsteer ->
                  steered := [];
                  Model.set_col_remap m None;
                  None
              | `Toggle ->
                  (* only meaningful in the fast-driven model: the
                     legacy-driven one stays legacy throughout *)
                  if fast then begin
                    on := not !on;
                    Model.set_fast_path m !on
                  end;
                  None
              | `Wait ->
                  Model.retention_wait m;
                  None
              | `Clear ->
                  Model.clear m;
                  None)
            ops
        in
        (log, Model.reads m, Model.writes m)
      in
      drive true = drive false)

(* [march_span] then per-op accesses on the rest of the run must leave
   the model exactly as per-op accesses throughout: the same
   mismatching reads, every physical row (spares included), the access
   counters, the dirty rows a [clear] visits, and the sense residue,
   which a word of stuck-open cells read right after the march returns
   whole.  The array is the small org or one with two spare columns.
   Faults come from the full mix over every row, plus a state coupling
   across the regular/spare boundary and faults on spare-column cells;
   a random remap sends logical rows onto spares.  Half the cases arm
   no column map, so spans run through many rows; the other half arm a
   random non-identity one steering up to three regular columns
   (mostly onto spare columns, so a steered slot takes the spare-bit
   path when its targets are unflagged and the per-bit path when they
   are not), and the span must stop at its steered slots.  The element
   mixes reads and writes in any order (reads before the first write
   included) over an array whose rows either hold a fill word (often
   the one those reads expect) or are still power-up zeros and
   clean. *)
let prop_march_span_equals_per_op =
  QCheck.Test.make ~name:"march span = per-op accesses" ~count:300
    QCheck.(pair (int_range 0 100_000) (int_range 0 5))
    (fun (seed, n) ->
      let module I = Bisram_faults.Injection in
      let rng = Random.State.make [| 0x5BA7; seed |] in
      let int k = Random.State.int rng k and flip () = Random.State.bool rng in
      let org = if flip () then small () else spare_col_org () in
      let rows = Org.total_rows org and cols = Org.cols org in
      let tcols = Org.total_cols org in
      let spare = Org.rows org and bpc = org.Org.bpc in
      let words = org.Org.words in
      let open_row = int rows and open_col = int bpc in
      let faults =
        I.inject rng ~rows ~cols ~mix:I.default_mix ~n
        @ List.init org.Org.bpw (fun b ->
              F.Stuck_open (cell open_row ((b * bpc) + open_col)))
        @ (if flip () then
             let reg = cell (int spare) (int cols)
             and spr = cell (spare + int org.Org.spares) (int cols) in
             let aggressor, victim =
               if flip () then (reg, spr) else (spr, reg)
             in
             [ F.State_coupling
                 { aggressor; when_state = flip (); victim; reads_as = flip () }
             ]
           else [])
        @ List.init (if tcols > cols then int 4 else 0) (fun _ ->
              let c = cell (int rows) (cols + int (tcols - cols)) in
              match int 4 with
              | 0 -> F.Stuck_at (c, flip ())
              | 1 -> F.Transition (c, flip ())
              | 2 -> F.Stuck_open c
              | _ ->
                  let reg = cell (int rows) (int cols) in
                  let aggressor, victim = if flip () then (reg, c) else (c, reg) in
                  F.Coupling_inversion { aggressor; victim })
      in
      let remap =
        let pairs =
          List.init (int 3) (fun _ -> (int spare, spare + int org.Org.spares))
        in
        if pairs = [] then None
        else
          Some
            (fun row ->
              match List.assoc_opt row pairs with Some s -> s | None -> row)
      in
      let col_remap =
        if flip () then None
        else
          let pairs =
            List.init (1 + int 3) (fun _ ->
                ( int cols,
                  if tcols = cols || int 5 = 0 then int tcols
                  else cols + int (tcols - cols) ))
          in
          Some (fun c -> match List.assoc_opt c pairs with Some q -> q | None -> c)
      in
      let bg = if flip () then 0 else int 256 in
      let n_ops = 1 + int 4 in
      let is_write = Array.init n_ops (fun _ -> flip ()) in
      let op_word =
        Array.init n_ops (fun _ -> if flip () then bg else bg lxor 0xFF)
      in
      let up = flip () in
      let first = int words in
      let count = int ((if up then words - first else first + 1) + 1) in
      let fill = if flip () then bg else bg lxor 0xFF in
      let filled = Array.init spare (fun _ -> flip ()) in
      let scribbles = List.init (int 6) (fun _ -> (int words, int 256)) in
      let build () =
        let m = Model.create org in
        Model.set_faults m faults;
        Model.set_remap m remap;
        Model.set_col_remap m col_remap;
        (* rows left unfilled stay power-up zeros and not yet dirty *)
        for a = 0 to words - 1 do
          if filled.(a / bpc) then Model.write_int m a fill
        done;
        List.iter (fun (a, v) -> Model.write_int m a v) scribbles;
        m
      in
      let per_op m ~from =
        let log = ref [] in
        for i = from to count - 1 do
          let a = if up then first + i else first - i in
          Array.iteri
            (fun j w ->
              if is_write.(j) then Model.write_int m a w
              else
                let got = Model.read_int m a in
                if got <> w then log := (a, j, got) :: !log)
            op_word
        done;
        List.rev !log
      in
      (* the unsteered read-back sees every regular cell, the steered
         one the spare-column cells in place of the steered bits *)
      let observe m =
        let st = Model.stats m in
        let array () =
          List.init rows (fun row ->
              List.init bpc (fun col -> Model.read_row_word m ~row ~col))
        in
        Model.set_col_remap m None;
        let residue = Model.read_row_word m ~row:open_row ~col:open_col in
        let regular = array () in
        Model.set_col_remap m col_remap;
        let steered = array () in
        Model.clear m;
        (st, residue, regular, steered, (Model.stats m).Model.s_rows_cleared)
      in
      let m_span = build () in
      let k =
        Model.march_span m_span ~up ~first ~count ~is_write ~op_word
      in
      let log_span = per_op m_span ~from:k in
      let m_ref = build () in
      let log_ref = per_op m_ref ~from:0 in
      let off = build () in
      Model.set_fast_path off false;
      k >= 0 && k <= count && log_span = log_ref
      && observe m_span = observe m_ref
      && Model.march_span off ~up ~first ~count ~is_write ~op_word = 0)

(* On a fault-free array the span runs the whole element: a fresh
   array reads as zeros, so u(r0,w1) completes every address and a
   repeat stops at once on the first address (it now holds ones). *)
let test_march_span_clean_array () =
  let org = small () in
  let m = Model.create org in
  let span up first =
    Model.march_span m ~up ~first ~count:org.Org.words
      ~is_write:[| false; true |] ~op_word:[| 0; 0xFF |]
  in
  Alcotest.(check int) "whole element" org.Org.words (span true 0);
  Alcotest.(check int) "stops on a mismatch" 0 (span false (org.Org.words - 1));
  let st = Model.stats m in
  Alcotest.(check (list int)) "counters" [ 64; 64; 64; 64 ]
    [ st.Model.s_reads; st.Model.s_fast_reads; st.Model.s_writes
    ; st.Model.s_fast_writes ];
  Alcotest.check word "stored" (Word.ones 8) (Model.read_word m 17)

(* Only armed slots leave the packed store.  Machinery that arms no
   slot (a retention cell, a coupling victim) leaves every word of its
   row packed, so a span runs through all four; a stuck-at cell arms its
   slot and the span stops exactly at that address; and a read of an
   unarmed slot on an armed row is served packed, counted as an
   armed-row packed op and not as a fast-path (clean-row) read. *)
let test_march_span_armed_rows () =
  let org = small () in
  let bpc = org.Org.bpc and row = 3 in
  let first = row * bpc in
  let span faults ~first ~count =
    let m = Model.create org in
    Model.set_faults m faults;
    let k =
      Model.march_span m ~up:true ~first ~count ~is_write:[| false; true |]
        ~op_word:[| 0; 0xFF |]
    in
    (m, k)
  in
  let _, k = span [ F.Data_retention (cell row 5, true) ] ~first ~count:bpc in
  Alcotest.(check int) "DRF-only row: every slot" bpc k;
  let m, k =
    span
      [ F.Coupling_inversion { aggressor = cell 9 2; victim = cell row 6 } ]
      ~first ~count:bpc
  in
  Alcotest.(check int) "CFin-victim row: every slot" bpc k;
  let st = Model.stats m in
  Alcotest.(check (list int)) "armed-row span counters" [ 4; 4; 0; 0; 8 ]
    [ st.Model.s_reads; st.Model.s_writes; st.Model.s_fast_reads
    ; st.Model.s_fast_writes; st.Model.s_armed_packed ];
  (* I/O 2 of mux position 1: the slot of address [first + 1] *)
  let m, k =
    span
      [ F.Stuck_at (cell row ((2 * bpc) + 1), false) ]
      ~first:0 ~count:org.Org.words
  in
  Alcotest.(check int) "stuck-at row: stops at the armed slot" (first + 1) k;
  let before = Model.stats m in
  Alcotest.(check int) "past the stop: power-up zeros" 0
    (Model.read_int m (first + 2));
  let after = Model.stats m in
  Alcotest.(check int) "not a fast-path read" before.Model.s_fast_reads
    after.Model.s_fast_reads;
  Alcotest.(check int) "an armed-row packed read"
    (before.Model.s_armed_packed + 1)
    after.Model.s_armed_packed

let test_clear_touches_only_dirty_rows () =
  (* behavioural check of the dirty-row invariant: after clear,
     every cell reads zero again regardless of what was written,
     including spare rows and pinned cells at their stuck value *)
  let org = small () in
  let m = Model.create org in
  Model.set_faults m [ F.Stuck_at (cell 3 9, true) ];
  for a = 0 to org.Org.words - 1 do
    Model.write_word m a (Word.ones 8)
  done;
  Model.write_row_word m ~row:(Org.rows org) ~col:2 (Word.ones 8);
  Model.clear m;
  for a = 0 to org.Org.words - 1 do
    let expected =
      if a = 13 then Word.of_int ~width:8 0b100 (* pinned cell reads 1 *)
      else Word.zero 8
    in
    Alcotest.check word (Printf.sprintf "addr %d cleared" a) expected
      (Model.read_word m a)
  done;
  Alcotest.check word "spare row cleared" (Word.zero 8)
    (Model.read_row_word m ~row:(Org.rows org) ~col:2)

let () =
  Alcotest.run "sram"
    [ ( "org",
        [ Alcotest.test_case "derived" `Quick test_org_derived
        ; Alcotest.test_case "validation" `Quick test_org_validation
        ; Alcotest.test_case "address split" `Quick test_org_address_split
        ; QCheck_alcotest.to_alcotest prop_org_addr_roundtrip
        ] )
    ; ( "word",
        [ Alcotest.test_case "basics" `Quick test_word_basics
        ; Alcotest.test_case "set" `Quick test_word_set
        ; Alcotest.test_case "width bounds" `Quick test_word_width_bounds
        ; QCheck_alcotest.to_alcotest prop_word_vs_reference
        ] )
    ; ( "model",
        [ Alcotest.test_case "read/write" `Quick test_model_rw
        ; Alcotest.test_case "independence" `Quick
            test_model_all_addresses_independent
        ; Alcotest.test_case "clear" `Quick test_model_clear
        ; Alcotest.test_case "rejects unsimulable org" `Quick
            test_model_rejects_unsimulable_org
        ; Alcotest.test_case "stuck-at" `Quick test_stuck_at
        ; Alcotest.test_case "transition" `Quick test_transition_fault
        ; Alcotest.test_case "stuck-open" `Quick test_stuck_open
        ; Alcotest.test_case "coupling inversion" `Quick test_coupling_inversion
        ; Alcotest.test_case "coupling idempotent" `Quick
            test_coupling_idempotent
        ; Alcotest.test_case "state coupling" `Quick test_state_coupling
        ; Alcotest.test_case "data retention" `Quick test_data_retention
        ; Alcotest.test_case "set_faults reuse restores power-up zeros"
            `Quick test_set_faults_reuse_restores_powerup_zeros
        ; Alcotest.test_case "remap" `Quick test_remap
        ; Alcotest.test_case "faulty spare" `Quick test_faulty_spare
        ; QCheck_alcotest.to_alcotest prop_model_rw_roundtrip
        ; QCheck_alcotest.to_alcotest prop_fast_path_equals_legacy
        ; Alcotest.test_case "int API guards" `Quick test_int_api_guards
        ; QCheck_alcotest.to_alcotest prop_fast_path_equals_legacy_remap
        ; Alcotest.test_case "march span on a clean array" `Quick
            test_march_span_clean_array
        ; QCheck_alcotest.to_alcotest prop_march_span_equals_per_op
        ; Alcotest.test_case "march span through armed rows" `Quick
            test_march_span_armed_rows
        ; Alcotest.test_case "stuck-open leaves clean reads fast" `Quick
            test_stuck_open_fast_read
        ; Alcotest.test_case "clear covers dirty rows" `Quick
            test_clear_touches_only_dirty_rows
        ] )
    ; ( "timing",
        [ Alcotest.test_case "magnitudes" `Quick test_timing_magnitudes
        ; Alcotest.test_case "monotone in rows" `Quick test_timing_monotone_rows
        ; Alcotest.test_case "write/interface" `Quick
            test_write_and_interface_timing
        ; Alcotest.test_case "drive helps" `Quick test_timing_drive_helps
        ] )
    ]
