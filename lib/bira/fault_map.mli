(** Bounded per-cell fault bitmap fed by the BIST comparator.

    The BIRA hardware cannot store an unbounded fault list, and it does
    not need to: a repair with [R] spare rows and [C] spare columns can
    cover at most [R*cols + C*rows] distinct cells, so once more
    distinct cells than that have been seen the memory is provably
    uncoverable and collection stops.  Overflow therefore never causes
    a false "unrepairable" verdict relative to a full-knowledge
    allocator.

    Cells are extracted from march-engine failures.  The default
    extraction XORs the packed {!Bisram_sram.Word} values (one int op
    plus one iteration per differing bit — the comparator analog); the
    [fast:false] seam re-extracts bit by bit through {!Word.get} and is
    held against the packed path by the campaign's differential
    oracle. *)

type t

(** [create org] sizes the bound from the organization's spare budget.
    With no spares at all any fault overflows (bound 0). *)
val create : Bisram_sram.Org.t -> t

(** The (row, col) cells behind one comparator mismatch, in bit order.
    [fast] takes the packed-XOR path; [fast:false] the per-bit one —
    both must agree (differential oracle). *)
val failure_cells :
  fast:bool ->
  Bisram_sram.Org.t ->
  Bisram_bist.Engine.failure ->
  (int * int) list

(** Record one cell.  Detection passes only address the regular grid,
    so a failure's cells always satisfy [row < rows && col < cols].
    Duplicate cells are free. *)
val add_cell : t -> row:int -> col:int -> unit

val overflowed : t -> bool

(** Distinct cells seen so far, sorted by (row, col).  Meaningless when
    {!overflowed} (collection stopped). *)
val cells : t -> (int * int) list
