(** Monotonic time, immune to wall-clock jumps (NTP steps, DST,
    manual resets).  Backed by [CLOCK_MONOTONIC] via the
    bechamel.monotonic_clock stub.

    Chaos seam: when {!Bisram_chaos.Chaos} is armed with a clock skew,
    both readings are shifted by that constant — still monotonic, but
    time-budget and deadline paths see a perturbed clock. *)

(** Seconds since an arbitrary fixed origin; strictly non-decreasing
    within a process.  Only differences are meaningful. *)
val now : unit -> float

(** Nanoseconds since the same origin (the raw counter). *)
val now_ns : unit -> int64
