(** The observability registry: named monotonic counters, log-bucketed
    histograms, lightweight phase spans and a structured, leveled event
    stream, all sharded per domain.  Counters answer "how many", spans
    "how long", events "what happened, when, in what order" — run and
    phase lifecycle, pool retries and deadline kills, chaos injections,
    cache hits/quarantines/reaps, checkpoint writes, estimator
    adaptive-batch decisions.  {!Export} serializes each channel.

    Design invariants:

    - {b Off by default, near-free when off.}  Telemetry (counters,
      histograms, spans) and events have one switch each: {!set_enabled}
      and {!set_event_level}.  Every recording entry point starts with
      one [Atomic.get] on its switch and returns immediately when it is
      off ({!span} runs its thunk directly).  Instrumented
      hot paths only pay that single load, and hot trial loops emit
      events at unit/batch/lifecycle granularity, never per trial.
    - {b Wait-free when on.}  Each domain records into its own shard
      (a [Domain.DLS] slot), so workers never contend on counters,
      histograms, span or event buffers.  The only lock is taken once
      per domain, when its shard registers itself.
    - {b One shard per domain.}  A span's [tid] and an event's [ev_tid]
      are the same shard id, so an event correlates with the
      Chrome-trace lane of the domain that emitted it.
    - {b Deterministic merge.}  {!snapshot} sums counters and histogram
      buckets across shards — integer sums, so the result is
      independent of shard registration order and of how work was
      scheduled across domains.  Counters and histograms fed
      deterministic values are therefore byte-identical across [jobs]
      counts; see the jobs-determinism property in [test/test_obs.ml].
      Event payloads (domain, name, fields) are pure functions of the
      work item that emitted them; only the [ts_ns]/[tid]/[seq]
      envelope depends on scheduling (gated in [test/test_events.ml]).
    - {b Observability never touches reports.}  Nothing in this module
      is reachable from {!Bisram_campaign.Campaign.to_json}; campaign
      and explore reports stay byte-identical with telemetry and events
      on or off.

    Shards survive their domain (the global list keeps them alive), so
    a snapshot or drain taken after a
    {!Bisram_parallel.Pool.map_result} join sees the workers' full
    contribution.  Take snapshots and drains
    only while no instrumented code is running concurrently. *)

(** Whether telemetry (counters, histograms, spans) is recording.  Off
    by default. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

type level = Debug | Info | Warn

(** The minimum event level recorded, or [None] (the default) for no
    events at all.  [Some Debug] also keeps per-point cache hit/miss
    events. *)
val set_event_level : level option -> unit

(** [would_log lvl] is true when an {!emit} at [lvl] would record —
    the guard to use before building an expensive field list.  Always
    false while events are off. *)
val would_log : level -> bool

(** Drop all recorded data in every shard — counters, histograms,
    spans and buffered events — and restart event sequence numbering
    at 0 (the shards themselves stay registered).  Call before a run
    whose observations should stand alone. *)
val reset : unit -> unit

(** [add name v] bumps the counter [name] by [v] in the calling
    domain's shard.  No-op when disabled. *)
val add : string -> int -> unit

(** [incr name] = [add name 1]. *)
val incr : string -> unit

(** [observe name v] records [v] into the log-bucketed histogram
    [name]: bucket [k] counts values in [[2^k, 2^(k+1))] (values [<= 1]
    land in bucket 0).  Count, sum, min and max are tracked exactly.
    No-op when disabled. *)
val observe : string -> int -> unit

(** [span ~cat ~arg name f] runs [f] and, when enabled, records a
    timed span (entry stamp and duration from
    {!Bisram_parallel.Clock.now_ns}) in the calling domain's shard —
    also when [f] raises.  [cat] (default ["span"]) and the optional
    integer [arg] annotate the Chrome-trace event.  When disabled this
    is exactly [f ()]. *)
val span : ?cat:string -> ?arg:string * int -> string -> (unit -> 'a) -> 'a

(** The pool's per-worker utilization probe while telemetry is on:
    it adds [pool.workerN.busy_ns], [pool.workerN.idle_ns] and
    [pool.workerN.items] in worker [N]'s own shard.  [None] while
    telemetry is off, so the pool's hot loop reads no clock. *)
val pool_probe : unit -> Bisram_parallel.Pool.probe option

type event = {
  ev_seq : int;  (** per-shard emission sequence number *)
  ev_tid : int;  (** shard id — the same id as the domain's spans *)
  ev_ts_ns : int64;  (** {!Bisram_parallel.Clock.now_ns} at emission *)
  ev_level : level;
  ev_domain : string;  (** subsystem: "campaign", "pool", "cache", ... *)
  ev_name : string;  (** event kind, e.g. "run.start", "pool.retry" *)
  ev_fields : (string * Json.t) list;  (** structured payload, in order *)
}

(** [emit ?level ~domain name fields] buffers one event in the calling
    domain's shard.  No-op unless [would_log level].  [level] defaults
    to [Info]. *)
val emit :
  ?level:level -> domain:string -> string -> (string * Json.t) list -> unit

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
      (** (bucket exponent, count) for non-empty buckets, ascending *)
}

type span_snapshot = {
  name : string;
  cat : string;
  arg : (string * int) option;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;  (** shard id — one per recording domain *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  hists : (string * hist_snapshot) list;  (** sorted by name *)
  spans : span_snapshot list;  (** sorted by (ts, tid, name) *)
}

(** Merge every shard into one deterministic view (stable key order,
    order-independent sums). *)
val snapshot : unit -> snapshot

(** Destructively collect every buffered event from every shard, merged
    and sorted by [(ts_ns, tid, seq)]. *)
val drain_events : unit -> event list
