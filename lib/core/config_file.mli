(** The configuration front end: key = value files, and the one
    resolver per configuration name that the CLI flags, config files
    and explore specs all go through.

    {v
    # 64 KB embedded cache
    process = CDA.7u3m1p
    words   = 4096
    bpw     = 128
    bpc     = 8
    spares  = 4
    spare_cols = 0
    drive   = 2
    strap   = 32
    march   = IFA-9
    v}

    Unknown keys are rejected; missing keys take the same defaults as
    the CLI.  [march] accepts a library name or inline notation. *)

(** Split file contents into key/value pairs: [#] starts a comment,
    blank lines are skipped, keys are lower-cased and both sides are
    trimmed.  [Error] names the first line without [=] or with an
    empty key or value, else the first key not in [keys]. *)
val parse :
  keys:string list -> string -> ((string * string) list, string) result

(** A bundled process by name, case-insensitively
    ({!Bisram_tech.Process.find}); [Error] lists the bundled names. *)
val process : string -> (Bisram_tech.Process.t, string) result

(** A march library name ({!Bisram_bist.Algorithms.find}), else an
    inline notation ({!Bisram_bist.March.of_string}, named ["custom"]). *)
val march : string -> (Bisram_bist.March.t, string) result

(** Resolve [process] and [march] and build the configuration;
    [Error] carries the first resolver or {!Config.make} message. *)
val config :
  process:string -> march:string -> words:int -> bpw:int -> bpc:int ->
  spares:int -> spare_cols:int -> drive:int -> strap:int ->
  (Config.t, string) result

(** [parse] the keys above and build the configuration; a non-integer
    number is an [Error] too. *)
val of_string : string -> (Config.t, string) result
