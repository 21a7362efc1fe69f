(** Greedy delta debugging: shrink a failing input to a 1-minimal
    reproducer.

    Used by the campaign to reduce a failing fault list to a minimal
    set that still triggers the same escape or oracle divergence. *)

(** [minimize ~keep items] returns a minimal sublist of [items]
    (original order preserved) on which [keep] still holds: no single
    remaining element can be dropped without [keep] turning false.
    [keep items] itself must be [true]; if it is not, [items] is
    returned unchanged.  [keep] is assumed deterministic. *)
val minimize : keep:('a list -> bool) -> 'a list -> 'a list

(** [minimize_failing ~keep items] is {!minimize} for a caller that
    has already established [keep items]: it never evaluates [keep] on
    the full list (one call fewer), and returns the same sublist
    {!minimize} would. *)
val minimize_failing : keep:('a list -> bool) -> 'a list -> 'a list
