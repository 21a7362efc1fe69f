(** Gate-level realization of the TRPLA and of the whole test-and-repair
    FSM.

    [of_trpla] expands the PLA's plane images into two-level AND-OR
    logic; [controller_netlist] adds the state flip-flops, giving a
    synchronous circuit whose inputs are the controller's condition
    bits and whose outputs are its control lines — the synthesizable
    view of the microprogram. *)

(** Names of the controller's condition inputs, in PLA input order
    (after the state bits). *)
val cond_names : string list

(** Pure combinational AND-OR netlist of a PLA.  Inputs are named
    [in0..]; outputs [out0..]. *)
val of_trpla : Trpla.t -> Bisram_gates.Netlist.t

(** The controller as a synchronous netlist: inputs are
    {!cond_names}, outputs are the control lines plus the state bits
    [state0..]; flip-flops reset to the IDLE state. *)
val controller_netlist : Controller.t -> Bisram_gates.Netlist.t

(** Structural Verilog of the controller FSM. *)
val controller_verilog : Controller.t -> string
