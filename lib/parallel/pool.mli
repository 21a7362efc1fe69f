(** A small domain-pool scheduler for embarrassingly parallel index
    ranges (OCaml 5 [Domain] + [Atomic], no external dependency).

    Work items are the indices [0 .. n-1].  Workers claim one index at
    a time from a shared atomic counter, so claims are handed out in
    index order and the completed set under an early stop is (with one
    worker) an exact prefix.  Results are returned positionally, which
    lets the caller merge them in input order — the property the
    campaign relies on for byte-identical reports at any job count.

    The pool is supervised: a raising item is captured (with its
    backtrace and attempt count) into a structured {!job_result} in its
    own slot, [Transient]-flagged raises are retried, and every other
    item keeps running.  A caller that wants fail-fast semantics
    re-raises the first failed slot itself.  Every spawned domain is
    joined before {!map_result} returns — a raising worker can never
    deadlock the pool or leak a domain (unit-tested). *)

(** Upper bound the runtime considers useful for [jobs] on this
    machine ({!Domain.recommended_domain_count}). *)
val recommended_jobs : unit -> int

(** Per-worker utilization report, called once per worker (including
    the caller, [worker = 0]) on that worker's own domain just before
    it finishes: [busy_ns] is time spent inside [f], [total_ns] the
    worker's whole lifetime (so [total_ns - busy_ns] is idle/scheduling
    time) and [items] the items completed.  Item assignment depends on
    scheduling, so only the item {e total} across workers is
    deterministic. *)
type probe = worker:int -> busy_ns:int64 -> total_ns:int64 -> items:int -> unit

(** Wrap an exception in [Transient] before raising to flag the
    failure as retryable: {!map_result} re-runs the item (at most
    twice more) instead of recording it.  The wrapper is stripped
    in the recorded {!failure} when retries are exhausted. *)
exception Transient of exn

(** Raised by {!check_deadline} once the deadline armed by
    {!with_deadline} has passed.  Deadlines are {e cooperative}: a
    domain cannot be preempted, so long-running code must poll
    {!check_deadline} at convenient points. *)
exception Deadline_exceeded

type failure = {
  f_exn : exn;  (** the original exception ([Transient] stripped) *)
  f_backtrace : Printexc.raw_backtrace;
  f_transient : bool;
      (** the final raise was [Transient]-flagged (retries exhausted) *)
}

type 'a job_result = {
  outcome : ('a, failure) result;
  attempts : int;  (** total attempts made, >= 1 *)
}

(** The attempt number of the item currently running on this domain
    (1 on the first try; only [> 1] inside {!map_result} retries).
    Lets deterministic fault injection key its decision on the attempt
    so a retry re-rolls it. *)
val current_attempt : unit -> int

(** Poll the cooperative deadline of the enclosing {!with_deadline}
    on this domain; raises {!Deadline_exceeded} once it has elapsed.
    A no-op (cheap domain-local read) when no deadline is armed, so
    library code can poll unconditionally. *)
val check_deadline : unit -> unit

(** [with_deadline seconds f] runs [f ()] with a cooperative deadline
    [seconds] from now armed on this domain, and restores the enclosing
    one (usually none) when [f] returns or raises.  A deadline too far
    ahead to represent in nanoseconds saturates: it never expires.
    The campaign arms one per trial.
    @raise Invalid_argument unless [seconds] is finite and [> 0]. *)
val with_deadline : float -> (unit -> 'a) -> 'a

(** [map_result ~jobs ~should_stop ~probe ~on_result ~on_retry n f]
    computes [f i] for [i] in [0 .. n-1] on [jobs] workers ([jobs - 1]
    spawned domains plus the calling one) and returns one {!job_result}
    per index, in index order.

    [jobs] defaults to [1]: no domain is spawned and the calls happen
    sequentially in the caller, in index order.

    [should_stop] (default [fun () -> false]) is polled before every
    item; once it returns [true] no further item is started anywhere
    (items already in flight complete), and the corresponding slots are
    [None].  It may be called concurrently from every worker.

    Retry: an item raising [Transient e] is re-run at once on the same
    worker, up to 2 extra attempts (3 in all).  A non-[Transient] raise,
    or a [Transient] one with retries exhausted, is recorded as
    [Error failure] in the item's slot; every other item still runs.

    [probe] (default absent: the hot loop reads no clock) receives one
    utilization report per worker.

    [on_result] (default absent) runs on the completing worker's
    domain right after the item's slot is filled, receiving the index
    and the result it just produced — the seam where the campaign
    folds its trial records in order, without cross-domain reads.  It
    must be safe to call concurrently from every worker.

    [on_retry] (default absent) runs on the raising worker's domain
    each time a [Transient] raise is about to be retried, receiving the
    index, the attempt number that just failed (starting at 1) and the
    unwrapped exception — the seam the observability layer uses to log
    retries.  Like [on_result], it must be safe to call concurrently
    from every worker.

    Determinism: with a deterministic [f] (per index and attempt), the
    returned array is identical at every [jobs] — failures land in
    their own slots, so no result depends on scheduling.

    @raise Invalid_argument if [jobs < 1] or [n < 0]. *)
val map_result :
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?probe:probe ->
  ?on_result:(int -> 'a job_result -> unit) ->
  ?on_retry:(int -> attempt:int -> exn -> unit) ->
  int ->
  (int -> 'a) ->
  'a job_result option array

(** [batch_ranges ~items ~width] decomposes [0 .. items - 1] into
    [(start, len)] pool items: [items / width] full batches of [width]
    consecutive indices, then one single-index item per ragged-tail
    index (so the tail keeps the unbatched scheduler's chaos, retry
    and checkpoint granularity).  [width = 1] yields the identity
    decomposition.  Used by the campaign's pool items.
    @raise Invalid_argument if [items < 0] or [width < 1]. *)
val batch_ranges : items:int -> width:int -> (int * int) array
