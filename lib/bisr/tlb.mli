(** The hardware translation lookaside buffer (TLB) of the BISR circuit.

    The TLB is a small CAM that associates the sequence of faulty row
    addresses, in order of detection, with the unique, predetermined,
    strictly increasing sequence of spare-row indices 0, 1, 2, ...
    During normal operation the incoming row address is compared in
    parallel against every stored entry; on a match the access is
    diverted to the corresponding spare row.

    A faulty spare discovered in a later repair iteration is handled by
    adding a fresh entry for the same logical row with the next spare
    index; lookup returns the latest entry, preserving the strictly
    increasing allocation property. *)

type t

(** [create ~spares ~regular_rows] — [spares] entries; spare [k] is the
    physical row [regular_rows + k]. *)
val create : spares:int -> regular_rows:int -> t

val capacity : t -> int
val entries : t -> int
(** number of spare rows consumed so far *)

val is_full : t -> bool

(** Logical rows currently mapped, in allocation order (latest mapping
    per row). *)
val mapped_rows : t -> int list

(** [record t ~row] allocates the next spare for the logical row.
    Recording a row that is already mapped to a non-superseded spare is
    a no-op returning [`Ok].  Returns [`Full] when no spare remains for
    a new allocation. *)
val record : t -> row:int -> [ `Ok | `Full ]

(** [would_overflow t ~row] — true when [record] would return [`Full]. *)
val would_overflow : t -> row:int -> bool

(** [remap t ~row] is the parallel CAM lookup: physical row for an
    incoming logical row ([row] itself when unmapped).  The TLB keeps
    the lookup's answer per logical row, so this is one array read. *)
val remap : t -> row:int -> int

(** [remap_spare t ~row] forces the NEXT spare for a logical row whose
    current spare turned out faulty (the iterated 2k-pass flow).
    Returns [`Full] when out of spares. *)
val remap_spare : t -> row:int -> [ `Ok | `Full ]

(** The spare index currently serving a row, if any. *)
val spare_of : t -> row:int -> int option

(** The strictly-increasing invariant: allocation order equals spare
    order (exposed for property tests). *)
val allocation_is_strictly_increasing : t -> bool

val clear : t -> unit
val pp : Format.formatter -> t -> unit
