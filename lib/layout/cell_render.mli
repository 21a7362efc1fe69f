(** ASCII rendering of leaf-cell geometry, one character per lambda.

    Layers are drawn bottom-up (wells first, metals last) with one
    character each, so the picture matches what a layout editor would
    show; used by the examples and for quick visual inspection of
    generated cells. *)

(** Render the cell; [scale] lambda per character (default 1). *)
val render : ?scale:int -> Cell.t -> string
