(** 2D remap layer: turn a spare allocation into the address-path
    translations the {!Bisram_sram.Model} can arm.

    Rows are remapped exactly like the TLB (logical row diverted to a
    physical spare row); columns are steered in the I/O path (a
    physical regular column replaced by a spare column at stride
    position [cols + k]).  Spares are consumed in increasing index
    order, skipping burned (known-faulty) ones. *)

(** [assign ~spares ~burned lines] pairs each line (ascending) with the
    lowest-index spare whose [burned] flag is unset, in order.  [None]
    when the unburned spares run out.  [burned] may be shorter than
    [spares] (missing entries are unburned). *)
val assign :
  spares:int -> burned:bool array -> int list -> (int * int) list option

(** [row_remap org pairs] — [pairs] maps logical rows to spare-row
    indices; the result diverts those rows to
    [regular_rows + spare] and is the identity elsewhere.
    @raise Invalid_argument if a row or spare index is out of range, or
    if a row or a spare appears in two pairs (the message names it):
    two rows on one spare would alias one physical row. *)
val row_remap : Bisram_sram.Org.t -> (int * int) list -> int -> int

(** [col_remap org pairs] — [pairs] maps regular physical columns to
    spare-column indices; the result steers those columns to
    [cols + spare] and is the identity elsewhere.  Suitable for
    {!Bisram_sram.Model.set_col_remap}.
    @raise Invalid_argument as {!row_remap}, for columns. *)
val col_remap : Bisram_sram.Org.t -> (int * int) list -> int -> int
