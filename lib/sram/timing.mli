(** Access-time extrapolation for the generated RAM, in the style of the
    paper's "timing guarantees before designing the overall layout".

    The model is built from the same primitives BISRAMGEN characterizes
    with its SPICE utilities: Elmore delays of the decoder chain, the
    word line, the bit line under current-mode sensing, and the column
    multiplexer / output path. *)

type breakdown = {
  address_buffer : float;
  row_decoder : float;
  word_line : float;
  bit_line : float;  (** swing development under current-mode sensing *)
  sense_amp : float;
  column_mux : float;
  output_driver : float;
}

val total : breakdown -> float

(** [access_time process org ~drive] estimates the read access time
    (seconds) of the array. [drive] is the user's critical-gate size
    multiplier (paper: "buffer size"); larger drive shortens the decoder
    and word-line terms. *)
val access_time :
  Bisram_tech.Process.t -> Org.t -> drive:float -> breakdown

(** Write-cycle time: decoder + word line as in a read, then the write
    drivers slam the bit lines full swing (no sense amplifier). *)
val write_time : Bisram_tech.Process.t -> Org.t -> drive:float -> float

type interface_timing = {
  address_setup : float;
      (** address stable before the cycle strobe: decode settle margin *)
  data_setup : float;  (** write data before write enable *)
  hold : float;  (** address/data hold after the strobe *)
}

(** Datasheet setup/hold figures (the RAMGEN datasheet tradition the
    paper cites). *)
val interface : Bisram_tech.Process.t -> Org.t -> drive:float -> interface_timing

(** Word-line wire length in meters (used by layout cross-checks). *)
val wordline_length : Bisram_tech.Process.t -> Org.t -> float

(** Bit-line wire length in meters. *)
val bitline_length : Bisram_tech.Process.t -> Org.t -> float

val pp : Format.formatter -> breakdown -> unit
