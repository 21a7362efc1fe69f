module N = Bisram_gates.Netlist

let cond_names =
  [ "test_enable"; "cmp_fail"; "elem_done"; "bg_done"; "tlb_full"; "ret_ack" ]

(* the controller's control outputs, in PLA output order (after the
   next-state bits) *)
let action_names =
  [ "apply_read"; "apply_write"; "data_complement"; "addr_reset_up"
  ; "addr_reset_down"; "request_wait"; "sig_done"; "sig_fail"; "addr_step"
  ; "record_row"; "next_background"; "reset_background"; "enable_remap"
  ]

(* Two-level AND-OR expansion of the plane images. *)
let build_planes t pla inputs =
  let and_plane = Trpla.and_plane_image pla in
  let or_plane = Trpla.or_plane_image pla in
  let term_signals =
    List.map
      (fun line ->
        let lits = ref [] in
        String.iteri
          (fun i c ->
            match c with
            | '1' -> lits := List.nth inputs i :: !lits
            | '0' -> lits := N.not_ t (List.nth inputs i) :: !lits
            | '-' -> ()
            | _ -> invalid_arg "Pla_gates: bad plane image")
          line;
        match !lits with
        | [] -> N.const t true
        | l -> N.and_list t l)
      and_plane
  in
  List.init (Trpla.n_outputs pla) (fun o ->
      let contributors =
        List.concat
          (List.map2
             (fun term line -> if line.[o] = '1' then [ term ] else [])
             term_signals or_plane)
      in
      match contributors with
      | [] -> N.const t false
      | l -> N.or_list t l)

let of_trpla pla =
  let t = N.create () in
  let inputs =
    List.init (Trpla.n_inputs pla) (fun i -> N.input t (Printf.sprintf "in%d" i))
  in
  let outs = build_planes t pla inputs in
  List.iteri (fun i s -> N.output t (Printf.sprintf "out%d" i) s) outs;
  t

let controller_netlist ctl =
  let pla = Controller.to_pla ctl in
  let nbits = Controller.flipflop_count ctl in
  assert (Trpla.n_inputs pla = nbits + List.length cond_names);
  assert (Trpla.n_outputs pla = nbits + List.length action_names);
  let t = N.create () in
  (* state register (IDLE = 0) *)
  let state = List.init nbits (fun i -> N.dff t (Printf.sprintf "s%d" i)) in
  let conds = List.map (N.input t) cond_names in
  let outs = build_planes t pla (state @ conds) in
  let next_state = List.filteri (fun i _ -> i < nbits) outs in
  let actions = List.filteri (fun i _ -> i >= nbits) outs in
  List.iter2 (fun q d -> N.connect t ~q ~d) state next_state;
  List.iteri (fun i q -> N.output t (Printf.sprintf "state%d" i) q) state;
  List.iter2 (fun name s -> N.output t name s) action_names actions;
  t

let controller_verilog ctl =
  N.to_verilog ~name:"trpla_fsm" (controller_netlist ctl)
