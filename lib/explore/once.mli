(** A table of values that concurrent workers compute at most once per
    key.  A key is absent, being computed by one worker, or done.  A
    worker that asks for a key another one is computing waits on a
    condition until that computation settles.  When the computation
    raises, the key becomes absent again and the waiters are woken, so
    one of them claims it and computes it itself: a failure is never
    cached, and a retry recomputes.  Every operation is safe to call
    from any domain. *)

type 'a t

val create : unit -> 'a t

(** [claim t key] — [Some v] when [key] is done; otherwise, once no
    other worker is computing it, [None]: the caller now owns [key]
    and must {!fill} it.  Blocks while another worker computes [key]. *)
val claim : 'a t -> string -> 'a option

(** [fill t key f] — runs [f ()] for a [key] the caller has claimed and
    records its value as done, or, if [f] raises, unclaims [key] and
    re-raises.  Either way the workers waiting on [key] are woken. *)
val fill : 'a t -> string -> (unit -> 'a) -> 'a

(** Forget a done [key], releasing its value. *)
val remove : 'a t -> string -> unit
