(** The march-test library.

    IFA-9 is the algorithm BISRAMGEN microprograms into its TRPLA;
    IFA-13 is the variant used by Chen and Sunada; the others are
    classical baselines for the coverage comparisons. *)

val ifa_9 : March.t
(** u(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); D; u(r0,w1); D; u(r1) *)

val ifa_13 : March.t
val mats_plus : March.t
val march_c_minus : March.t
val zero_one : March.t
(** The naive u(w0); u(r0); u(w1); u(r1) baseline (MSCAN). *)

val march_a : March.t
(** 15N; unlinked coupling faults. *)

val march_y : March.t
(** 8N; linked transition faults. *)

val march_lr : March.t
(** 14N; realistic linked faults. *)

val pmovi : March.t
(** 13N; read-after-write everywhere (transition + SOF oriented). *)

val all : March.t list
val find : string -> March.t option
