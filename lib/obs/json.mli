(** A minimal deterministic JSON representation, shared by the campaign
    reports and the telemetry exporters.

    Serialization is fully deterministic: object fields are emitted in
    the order given, floats through a fixed ["%.9g"] format (integral
    values as ["%.1f"]), so the same value always produces the same
    bytes — the property the campaign's replay discipline and the
    diffable telemetry artifacts both rely on.

    {!of_string} is a strict parser for the same grammar, used by the
    smoke gates to validate exporter output without an external JSON
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact single-line rendering. *)
val to_string : t -> string

(** Two-space-indented rendering, trailing newline (the CLI output). *)
val to_pretty_string : t -> string

(** Strict parse of a complete JSON document.  Numbers without a
    fraction or exponent parse as [Int] (falling back to [Float] when
    they overflow); [\u] escapes are decoded to UTF-8, including
    surrogate pairs.  [Error] carries a message with a byte offset. *)
val of_string : string -> (t, string) result

(** [member k j] is the value of field [k] when [j] is an [Obj] that
    has one, [None] otherwise. *)
val member : string -> t -> t option

(** [interval_json ~lo ~hi] — the canonical [{"lo": …, "hi": …}]
    rendering of a confidence interval in reports. *)
val interval_json : lo:float -> hi:float -> t
