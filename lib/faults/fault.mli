(** Functional fault models for SRAM arrays.

    These are the fault classes the IFA-9 test targets (Shen, Maly and
    Ferguson's inductive fault analysis): stuck-at, stuck-open,
    transition, coupling (inversion, idempotent and state coupling) and
    data-retention faults. *)

type cell = { row : int; col : int }
(** Physical bit position: [row] is the physical row index (spare rows
    sit above the regular rows); [col] is the global column index in
    [0, bpw*bpc). *)

type t =
  | Stuck_at of cell * bool
      (** cell always stores/reads the given value *)
  | Transition of cell * bool
      (** [true]: up-transition fault (cannot go 0 to 1);
          [false]: down-transition fault *)
  | Stuck_open of cell
      (** cell inaccessible; a read returns the sense amplifier's
          previous output (the standard SOF read model) *)
  | Coupling_inversion of { aggressor : cell; victim : cell }
      (** any write transition on the aggressor inverts the victim *)
  | Coupling_idempotent of {
      aggressor : cell;
      rising : bool;  (** which aggressor transition triggers *)
      victim : cell;
      forces : bool;  (** value forced onto the victim *)
    }
  | State_coupling of {
      aggressor : cell;
      when_state : bool;
      victim : cell;
      reads_as : bool;
    }
      (** while the aggressor stores [when_state], the victim reads as
          [reads_as] *)
  | Data_retention of cell * bool
      (** after a retention wait the cell decays to the given value *)

(** The cell whose behaviour is directly broken (the victim). *)
val victim : t -> cell

(** Every cell mentioned by the fault (victim and aggressor). *)
val cells : t -> cell list

val equal_cell : cell -> cell -> bool
val compare_cell : cell -> cell -> int
val pp : Format.formatter -> t -> unit

(** Short class name: "SAF", "TF", "SOF", "CFin", "CFid", "CFst", "DRF". *)
val class_name : t -> string

val all_class_names : string list
