(** Power estimation for the generated RAM (datasheet "supply current"
    figures, in the RAMGEN tradition the paper cites).

    Dynamic energy per access: word-line swing, the selected column's
    bit-line swing (small under current-mode sensing), decoder and
    datapath switching.  Static power: sense-amplifier bias and the
    pseudo-NMOS TRPLA pull-ups (the BIST controller burns static power
    only while testing; its normal-mode contribution is gated off). *)

type estimate = {
  read_energy : float;  (** joules per read access *)
  write_energy : float;  (** joules per write access *)
  static_power : float;  (** watts, normal mode *)
  vdd : float;  (** supply the energies were computed at *)
}

(** [estimate process org ~drive] — per-access energies and static
    power of the array plus periphery. *)
val estimate :
  Bisram_tech.Process.t -> Org.t -> drive:float -> estimate

(** Average supply current at the given access rate (50/50 read/write),
    amperes. *)
val supply_current : estimate -> frequency_hz:float -> float

val pp : Format.formatter -> estimate -> unit
