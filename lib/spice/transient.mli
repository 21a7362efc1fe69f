(** Switch-level transient simulation.

    Devices are reduced to conductances: a MOS transistor is a resistor
    of its averaged on-resistance when its gate passes the switching
    threshold, and an open circuit otherwise.  Capacitors are integrated
    with backward Euler.  This reproduces the waveform-level behaviour
    BISRAMGEN needs (delay and rise/fall trends of leaf cells) without a
    full nonlinear solver. *)

type waveform = { times : float array; volts : float array }

type result

(** [simulate circuit ~feature_m ~sources ~tstop ~dt] integrates the
    circuit from 0 to [tstop] with step [dt].  [sources] pin nets to
    time-dependent voltages; the vdd net is pinned to Vdd and ground to
    0 automatically.  Unpinned nets start at 0 V. *)
val simulate :
  Circuit.t ->
  feature_m:float ->
  sources:(Circuit.net * (float -> float)) list ->
  tstop:float ->
  dt:float ->
  result

val waveform : result -> Circuit.net -> waveform

(** Voltage of a net at the final time point. *)
val final : result -> Circuit.net -> float

(** First time the waveform crosses [level] in the given direction;
    [None] if it never does. *)
val crossing : waveform -> level:float -> rising:bool -> float option

(** Step input: 0 before [at], Vdd after. *)
val step : vdd:float -> at:float -> float -> float

(** Falling step: Vdd before [at], 0 after. *)
val fall : vdd:float -> at:float -> float -> float
