module Model = Bisram_sram.Model
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word

type hooks = {
  record_fault : row:int -> [ `Ok | `Full ];
  would_overflow : row:int -> bool;
  enable_remap : unit -> unit;
  faults_recorded : unit -> int;
}

let no_repair_hooks =
  { record_fault = (fun ~row:_ -> `Full)
  ; would_overflow = (fun ~row:_ -> true)
  ; enable_remap = (fun () -> ())
  ; faults_recorded = (fun () -> 0)
  }

type outcome = Passed_clean | Repaired | Repair_unsuccessful

(* Conditions sampled by the transition logic.  The controller uses a
   two-phase clock: phase 1 performs the state's datapath work (the RAM
   operation settles and the comparator resolves), phase 2 evaluates the
   PLA, so a state's guards see the effect of its own work. *)
type cond = Test_enable | Cmp_fail | Elem_done | Bg_done | Tlb_full | Ret_ack

(* PLA input order after the state bits *)
let all_conds = [| Test_enable; Cmp_fail; Elem_done; Bg_done; Tlb_full; Ret_ack |]

(* Control outputs.  "Work" actions fire in phase 1 and may only appear
   in a state's work list; "exit" actions fire in phase 2 on the taken
   transition.  The two sets are disjoint so the PLA image can drive
   both phases. *)
type action =
  | Apply_read (* work *)
  | Apply_write (* work *)
  | Data_complement (* work: modifies Apply_* to use ~background *)
  | Addr_reset_up (* work *)
  | Addr_reset_down (* work *)
  | Request_wait (* work *)
  | Sig_done (* work: status *)
  | Sig_fail (* work: status *)
  | Addr_step (* exit *)
  | Record_row (* exit *)
  | Next_background (* exit *)
  | Reset_background (* exit *)
  | Enable_remap (* exit *)

(* An action's bit in a mask is its PLA output line after the state
   bits: the order of this list. *)
let all_actions =
  [ Apply_read; Apply_write; Data_complement; Addr_reset_up; Addr_reset_down
  ; Request_wait; Sig_done; Sig_fail; Addr_step; Record_row; Next_background
  ; Reset_background; Enable_remap
  ]

let bit a =
  let rec find i = function
    | [] -> assert false
    | x :: rest -> if x = a then 1 lsl i else find (i + 1) rest
  in
  find 0 all_actions

let mask_of actions = List.fold_left (fun m a -> m lor bit a) 0 actions

let b_read = bit Apply_read
let b_write = bit Apply_write
let b_compl = bit Data_complement
let b_reset_up = bit Addr_reset_up
let b_reset_down = bit Addr_reset_down
let b_wait = bit Request_wait
let b_step = bit Addr_step
let b_record = bit Record_row
let b_next_bg = bit Next_background
let b_reset_bg = bit Reset_background
let b_remap = bit Enable_remap

let work_bits =
  mask_of
    [ Apply_read; Apply_write; Data_complement; Addr_reset_up; Addr_reset_down
    ; Request_wait; Sig_done; Sig_fail ]

(* A compiled state: its rows of the TRPLA.  Assignment [m] gives
   condition [uses.(i)] the value of bit [i] of [m] (unused conditions
   are don't-cares); [exits.(m)] and [next.(m)] are the transition the
   state takes under it. *)
type state = {
  name : string;
  work : int; (* work-action mask, fired in phase 1 *)
  uses : cond array;
  exits : int array; (* per assignment: exit-action mask, fired in phase 2 *)
  next : int array; (* per assignment: next state id *)
}

(* A state's clean-address loop, read off the table: the states the
   controller walks at one address when every sampled condition is
   false (no mismatch, not the element's last address), from the state
   back to itself through an [Addr_step].  [l_cycles] is its length,
   0 for a state that starts no such loop. *)
type loop = {
  l_cycles : int;
  l_reads : bool;
  l_is_write : bool array;
  l_words : int array array; (* per background: each op's packed word *)
}

type t = {
  test : March.t;
  words : int;
  backgrounds : Word.t list;
      (* empty for layout-only controllers ({!compile_layout}) *)
  n_backgrounds : int;
  bg_words : int array; (* packed backgrounds *)
  bg_words_c : int array; (* complemented *)
  states : state array;
  loops : loop array; (* per state *)
  idle : int;
  done_ok : int;
  fail : int;
}

type report = { outcome : outcome; cycles : int; faults_recorded : int }

(* Enumerate a state's transition function over every assignment of
   the conditions it samples — the only place the symbolic definition
   is evaluated. *)
let tabulate ~name ~work ~uses next_of =
  let uses = Array.of_list uses in
  let k = Array.length uses in
  let exits = Array.make (1 lsl k) 0 and next = Array.make (1 lsl k) 0 in
  for m = 0 to (1 lsl k) - 1 do
    let env c =
      let rec go i =
        i < k && if uses.(i) = c then m land (1 lsl i) <> 0 else go (i + 1)
      in
      go 0
    in
    let ex, nx = next_of env in
    exits.(m) <- mask_of ex;
    next.(m) <- nx
  done;
  let work = mask_of work in
  (* work/exit disjointness invariant *)
  assert (work land lnot work_bits = 0);
  Array.iter (fun x -> assert (x land work_bits = 0)) exits;
  { name; work; uses; exits; next }

let no_loop = { l_cycles = 0; l_reads = false; l_is_write = [||]; l_words = [||] }

(* Follow the table from [s0] under assignment 0.  Only states whose
   work is one RAM operation (optionally complemented) and whose
   sampled conditions are all false on a clean, non-last address may
   take part: [Elem_done], and [Cmp_fail]/[Tlb_full] once the loop has
   read (a matching read clears the comparator; [Tlb_full] needs a
   mismatch). *)
let clean_loop states ~bg_words ~bg_words_c s0 =
  let op_bits = b_read lor b_write lor b_compl in
  let rec follow s works ~read =
    let st = states.(s) in
    let read = read || st.work land b_read <> 0 in
    let clean_cond = function
      | Elem_done -> true
      | Cmp_fail | Tlb_full -> read
      | Test_enable | Bg_done | Ret_ack -> false
    in
    if
      List.length works >= Array.length states
      || st.work land lnot op_bits <> 0
      || st.work land (b_read lor b_write) = 0
      || not (Array.for_all clean_cond st.uses)
    then None
    else
      let works = st.work :: works in
      match (st.exits.(0), st.next.(0)) with
      | x, nx when x = b_step && nx = s0 -> Some (Array.of_list (List.rev works))
      | 0, nx -> follow nx works ~read
      | _ -> None
  in
  match follow s0 [] ~read:false with
  | None -> no_loop
  | Some works ->
      (* [exec_work]: a read wins over a write *)
      let is_read w = w land b_read <> 0 in
      { l_cycles = Array.length works
      ; l_reads = Array.exists is_read works
      ; l_is_write = Array.map (fun w -> not (is_read w)) works
      ; l_words =
          Array.mapi
            (fun i bg ->
              Array.map
                (fun w -> if w land b_compl <> 0 then bg_words_c.(i) else bg)
                works)
            bg_words
      }

let reset_action = function
  | March.Down -> Addr_reset_down
  | March.Up | March.Either -> Addr_reset_up

(* The FSM layout depends only on the march test; backgrounds enter as
   a loop whose trip count is [n_backgrounds], so layout-only flows
   (wide words that the packed simulator cannot represent) compile with
   the count alone and an empty value list. *)
let compile_gen test ~words ~backgrounds ~n_backgrounds =
  if words <= 0 then invalid_arg "Controller.compile: words";
  if n_backgrounds < 1 then invalid_arg "Controller.compile: no backgrounds";
  let items = Array.of_list test.March.items in
  let n_items = Array.length items in
  if n_items = 0 then invalid_arg "Controller.compile: empty march";
  (* ----- id layout ----- *)
  let counter = ref 0 in
  let alloc () =
    let id = !counter in
    incr counter;
    id
  in
  let idle = alloc () in
  let setup_id = Array.make_matrix 2 n_items (-1) in
  let op_ids = Array.init 2 (fun _ -> Array.make n_items [||]) in
  let wait_id = Array.make_matrix 2 n_items (-1) in
  let next_bg_id = Array.make 2 (-1) in
  let tlb_check = ref (-1) in
  let pass2_setup = ref (-1) in
  for p = 0 to 1 do
    for i = 0 to n_items - 1 do
      match items.(i) with
      | March.Elem e ->
          setup_id.(p).(i) <- alloc ();
          op_ids.(p).(i) <- Array.init (List.length e.March.ops) (fun _ -> alloc ())
      | March.Wait -> wait_id.(p).(i) <- alloc ()
    done;
    next_bg_id.(p) <- alloc ();
    if p = 0 then begin
      tlb_check := alloc ();
      pass2_setup := alloc ()
    end
  done;
  let done_ok = alloc () in
  let fail = alloc () in
  let n_states = !counter in
  let item_entry p i =
    match items.(i) with
    | March.Elem _ -> setup_id.(p).(i)
    | March.Wait -> wait_id.(p).(i)
  in
  let first_item p = item_entry p 0 in
  let next_item p i = if i + 1 < n_items then item_entry p (i + 1) else next_bg_id.(p) in
  (* ----- state definitions ----- *)
  let states =
    Array.make n_states
      { name = "?"; work = 0; uses = [||]; exits = [| 0 |]; next = [| 0 |] }
  in
  let define id ~name ~work ~uses next_of =
    states.(id) <- tabulate ~name ~work ~uses next_of
  in
  define idle ~name:"IDLE" ~work:[] ~uses:[ Test_enable ] (fun c ->
      if c Test_enable then ([ Reset_background ], first_item 0)
      else ([], idle));
  for p = 0 to 1 do
    let pn = p + 1 in
    for i = 0 to n_items - 1 do
      match items.(i) with
      | March.Wait ->
          let self = wait_id.(p).(i) in
          define self
            ~name:(Printf.sprintf "P%d_WAIT%d" pn i)
            ~work:[ Request_wait ] ~uses:[ Ret_ack ]
            (fun c -> if c Ret_ack then ([], next_item p i) else ([], self))
      | March.Elem e ->
          define setup_id.(p).(i)
            ~name:(Printf.sprintf "P%d_SETUP%d" pn i)
            ~work:[ reset_action e.March.order ]
            ~uses:[]
            (fun _ -> ([], op_ids.(p).(i).(0)));
          let ops = Array.of_list e.March.ops in
          let n_ops = Array.length ops in
          for j = 0 to n_ops - 1 do
            let self = op_ids.(p).(i).(j) in
            let is_last = j = n_ops - 1 in
            let is_read = match ops.(j) with March.R _ -> true | March.W _ -> false in
            let compl =
              match ops.(j) with March.R c | March.W c -> c
            in
            let work =
              (if is_read then [ Apply_read ] else [ Apply_write ])
              @ (if compl then [ Data_complement ] else [])
            in
            let uses =
              (if is_read then [ Cmp_fail ] else [])
              @ (if is_read && p = 0 then [ Tlb_full ] else [])
              @ if is_last then [ Elem_done ] else []
            in
            let advance c record =
              if is_last then
                if c Elem_done then (record, next_item p i)
                else (record @ [ Addr_step ], op_ids.(p).(i).(0))
              else (record, op_ids.(p).(i).(j + 1))
            in
            define self
              ~name:
                (Printf.sprintf "P%d_E%d_%s%d" pn i
                   (match ops.(j) with
                   | March.R c -> if c then "R1_" else "R0_"
                   | March.W c -> if c then "W1_" else "W0_")
                   j)
              ~work ~uses
              (fun c ->
                let failed = is_read && c Cmp_fail in
                if failed && p = 1 then ([], fail)
                else if failed && c Tlb_full then ([], fail)
                else advance c (if failed then [ Record_row ] else []))
          done
    done;
    let self = next_bg_id.(p) in
    define self
      ~name:(Printf.sprintf "P%d_NEXTBG" pn)
      ~work:[] ~uses:[ Bg_done ]
      (fun c ->
        if c Bg_done then ([], if p = 0 then !tlb_check else done_ok)
        else ([ Next_background ], first_item p))
  done;
  define !tlb_check ~name:"TLB_CHECK" ~work:[] ~uses:[] (fun _ ->
      ([], !pass2_setup));
  define !pass2_setup ~name:"PASS2_SETUP" ~work:[] ~uses:[] (fun _ ->
      ([ Enable_remap; Reset_background ], first_item 1));
  define done_ok ~name:"DONE_OK" ~work:[ Sig_done ] ~uses:[] (fun _ ->
      ([], done_ok));
  define fail ~name:"FAIL" ~work:[ Sig_fail ] ~uses:[] (fun _ -> ([], fail));
  let bgs = Array.of_list backgrounds in
  let bg_words = Array.map Word.to_int bgs in
  let bg_words_c = Array.map (fun bg -> Word.to_int (Word.lnot_ bg)) bgs in
  let loops = Array.init n_states (clean_loop states ~bg_words ~bg_words_c) in
  { test; words; backgrounds; n_backgrounds; bg_words; bg_words_c; states
  ; loops; idle; done_ok; fail }

(* One controller per domain: a campaign runs every trial, and every
   shrink step, with the same march, words and backgrounds. *)
let compiled_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let compile test ~words ~backgrounds =
  match Domain.DLS.get compiled_key with
  | Some t
    when t.words = words
         && (t.test == test || March.equal t.test test)
         && List.equal
              (fun a b -> Word.width a = Word.width b && Word.equal a b)
              t.backgrounds backgrounds ->
      t
  | _ ->
      let t =
        compile_gen test ~words ~backgrounds
          ~n_backgrounds:(List.length backgrounds)
      in
      Domain.DLS.set compiled_key (Some t);
      t

let compile_layout test ~words ~n_backgrounds =
  compile_gen test ~words ~backgrounds:[] ~n_backgrounds

let state_count t = Array.length t.states

let flipflop_count t =
  let n = state_count t in
  let rec go acc k = if k >= n then acc else go (acc + 1) (k * 2) in
  go 0 1

let state_names t = Array.map (fun s -> s.name) t.states

(* ------------------------------------------------------------------ *)
(* Datapath shared by table-driven and PLA-driven execution *)

type datapath = {
  model : Model.t;
  org : Org.t;
  hooks : hooks;
  addgen : Addgen.t;
  bgs : int array; (* packed backgrounds *)
  bgs_c : int array; (* complemented *)
  mutable cycles : int;
  mutable bg_idx : int;
  mutable dir : March.order;
  mutable cmp_fail : bool;
  mutable recorded : int;
  mutable waited : bool;
}

let make_datapath t model hooks =
  if t.backgrounds = [] then
    invalid_arg "Controller.run: layout-only controller (no backgrounds)";
  let org = Model.org model in
  List.iter
    (fun bg ->
      if Word.width bg <> org.Org.bpw then
        invalid_arg "Controller.run: background width mismatch")
    t.backgrounds;
  Model.clear model;
  { model
  ; org
  ; hooks
  ; addgen = Addgen.create ~limit:t.words
  ; bgs = t.bg_words
  ; bgs_c = t.bg_words_c
  ; cycles = 0
  ; bg_idx = 0
  ; dir = March.Up
  ; cmp_fail = false
  ; recorded = 0
  ; waited = false
  }

let current_row dp = Org.row_of_addr dp.org (Addgen.value dp.addgen)

(* [Tlb_full] matters only after a failing pass-1 read (no state's
   transition consults it otherwise), so the TLB is queried only then. *)
let eval_cond dp = function
  | Test_enable -> true
  | Cmp_fail -> dp.cmp_fail
  | Elem_done -> (
      let v = Addgen.value dp.addgen in
      match dp.dir with
      | March.Up | March.Either -> v = Addgen.limit dp.addgen - 1
      | March.Down -> v = 0)
  | Bg_done -> dp.bg_idx = Array.length dp.bgs - 1
  | Tlb_full -> dp.cmp_fail && dp.hooks.would_overflow ~row:(current_row dp)
  | Ret_ack -> dp.waited

(* Phase 1: the state's work lines. *)
let exec_work dp w =
  if w land (b_read lor b_write) <> 0 then begin
    let bg =
      Array.unsafe_get (if w land b_compl <> 0 then dp.bgs_c else dp.bgs)
        dp.bg_idx
    in
    let a = Addgen.value dp.addgen in
    if w land b_read <> 0 then
      dp.cmp_fail <- bg <> Model.read_int dp.model a
    else Model.write_int dp.model a bg
  end;
  if w land b_reset_up <> 0 then begin
    dp.dir <- March.Up;
    Addgen.reset dp.addgen ~dir:March.Up
  end;
  if w land b_reset_down <> 0 then begin
    dp.dir <- March.Down;
    Addgen.reset dp.addgen ~dir:March.Down
  end;
  dp.waited <- w land b_wait <> 0;
  if dp.waited then Model.retention_wait dp.model

(* Phase 2: the taken transition's exit lines.  They are simultaneous
   register updates in hardware: Record_row samples the CURRENT address
   register, so it fires before Addr_step. *)
let exec_exits dp x =
  if x land b_record <> 0 then begin
    match dp.hooks.record_fault ~row:(current_row dp) with
    | `Ok -> dp.recorded <- dp.hooks.faults_recorded ()
    | `Full -> (* guarded against by Tlb_full *) assert false
  end;
  if x land b_step <> 0 then ignore (Addgen.step dp.addgen ~dir:dp.dir);
  if x land b_next_bg <> 0 then dp.bg_idx <- dp.bg_idx + 1;
  if x land b_reset_bg <> 0 then dp.bg_idx <- 0;
  if x land b_remap <> 0 then dp.hooks.enable_remap ();
  (* leaving a wait state consumes the acknowledge *)
  dp.waited <- false

let cycle_budget t =
  let per_pass =
    March.ops_per_address t.test * t.words * t.n_backgrounds
  in
  (8 * (per_pass + 100) * 2) + 1000

(* Clock [step] (current state -> next state) from IDLE to a terminal
   state. *)
let drive t dp ~who step =
  let budget = cycle_budget t in
  let rec go state =
    if state = t.done_ok || state = t.fail then begin
      let outcome =
        if state = t.fail then Repair_unsuccessful
        else if dp.recorded = 0 then Passed_clean
        else Repaired
      in
      { outcome; cycles = dp.cycles; faults_recorded = dp.recorded }
    end
    else if dp.cycles > budget then
      failwith (who ^ ": cycle budget exceeded (FSM livelock?)")
    else begin
      let next = step state in
      dp.cycles <- dp.cycles + 1;
      go next
    end
  in
  go t.idle

(* Run a state's clean-address loop over every clean address up to,
   not including, the element's last (where [Elem_done] turns true),
   as the table would: [l_cycles] cycles and one [Addr_step] per
   address, a matching read clearing the comparator, and no wait
   acknowledge left. *)
let fast_forward dp l =
  let a = Addgen.value dp.addgen in
  let up = dp.dir <> March.Down in
  let left = if up then Addgen.limit dp.addgen - 1 - a else a in
  let n =
    Model.march_span dp.model ~up ~first:a ~count:left ~is_write:l.l_is_write
      ~op_word:(Array.unsafe_get l.l_words dp.bg_idx)
  in
  if n > 0 then begin
    dp.cycles <- dp.cycles + (n * l.l_cycles);
    Addgen.advance dp.addgen ~dir:dp.dir n;
    if l.l_reads then dp.cmp_fail <- false;
    dp.waited <- false
  end

let run t model hooks =
  let dp = make_datapath t model hooks in
  drive t dp ~who:"Controller.run" (fun state ->
      let l = Array.unsafe_get t.loops state in
      if l.l_cycles > 0 then fast_forward dp l;
      let s = Array.unsafe_get t.states state in
      exec_work dp s.work;
      let m = ref 0 in
      for i = 0 to Array.length s.uses - 1 do
        if eval_cond dp (Array.unsafe_get s.uses i) then m := !m lor (1 lsl i)
      done;
      exec_exits dp (Array.unsafe_get s.exits !m);
      Array.unsafe_get s.next !m)

(* ------------------------------------------------------------------ *)
(* PLA compilation *)

let n_conds = Array.length all_conds
let n_actions = List.length all_actions

let to_pla t =
  let nbits = flipflop_count t in
  let n_inputs = nbits + n_conds in
  let n_outputs = nbits + n_actions in
  let pla = Trpla.create ~n_inputs ~n_outputs in
  Array.iteri
    (fun id s ->
      (* one term per assignment of the used conditions *)
      Array.iteri
        (fun m next ->
          let ands =
            Array.init n_inputs (fun i ->
                if i < nbits then
                  (* state encoding, LSB first *)
                  if id land (1 lsl i) <> 0 then Trpla.T else Trpla.F
                else
                  let c = all_conds.(i - nbits) in
                  let rec lit j =
                    if j >= Array.length s.uses then Trpla.X
                    else if s.uses.(j) = c then
                      if m land (1 lsl j) <> 0 then Trpla.T else Trpla.F
                    else lit (j + 1)
                  in
                  lit 0)
          in
          let acts = s.work lor s.exits.(m) in
          let ors =
            Array.init n_outputs (fun o ->
                if o < nbits then next land (1 lsl o) <> 0
                else acts land (1 lsl (o - nbits)) <> 0)
          in
          Trpla.add_term pla ~ands ~ors)
        s.next)
    t.states;
  pla

let run_via_pla t model hooks =
  let pla = to_pla t in
  let nbits = flipflop_count t in
  let dp = make_datapath t model hooks in
  (* evaluate the planes; returns (next state, action mask) *)
  let eval state cond =
    let out =
      Trpla.eval pla
        (Array.init (nbits + n_conds) (fun i ->
             if i < nbits then state land (1 lsl i) <> 0
             else cond all_conds.(i - nbits)))
    in
    let next = ref 0 and acts = ref 0 in
    Array.iteri
      (fun o on ->
        if on then
          if o < nbits then next := !next lor (1 lsl o)
          else acts := !acts lor (1 lsl (o - nbits)))
      out;
    (!next, !acts)
  in
  drive t dp ~who:"Controller.run_via_pla" (fun state ->
      (* phase 1: work lines are identical on every term of a state, so
         any condition assignment selects them *)
      let _, acts_a = eval state (fun _ -> false) in
      exec_work dp (acts_a land work_bits);
      (* phase 2: conditions now reflect the work; take the transition *)
      let next, acts_b = eval state (eval_cond dp) in
      exec_exits dp (acts_b land lnot work_bits);
      next)

let pp_outcome ppf = function
  | Passed_clean -> Format.pp_print_string ppf "passed (no repair needed)"
  | Repaired -> Format.pp_print_string ppf "repaired"
  | Repair_unsuccessful -> Format.pp_print_string ppf "REPAIR UNSUCCESSFUL"
