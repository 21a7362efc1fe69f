(** Atomic file replacement, shared by every artifact that a reader may
    poll or a kill may interrupt: campaign checkpoints, the live status
    file and explore cache entries. *)

(** [write ~prefix path contents] writes [contents] to a fresh temp
    file [prefix]...[.tmp] in [path]'s own directory and renames it over
    [path], so a reader or a kill at any instant sees the old file or
    the new one, never a torn write.  On failure the temp file is
    removed and the exception re-raised ([Sys_error] for I/O errors). *)
val write : prefix:string -> string -> string -> unit
