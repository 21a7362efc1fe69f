(** Content-addressed on-disk memoization of evaluator results.

    Every entry is one JSON file under the cache directory, named by
    the hex digest of its key; the key itself embeds the cache-format
    {!version} and the evaluator's canonical input rendering
    ({!Spec.cache_key}), so a format bump or an input change can never
    alias an old entry.  The stored document carries the full key and a
    content digest of the value's serialization, both verified on read
    — a filename-digest collision, a truncated file or a flipped byte
    anywhere in the entry is treated as a miss, never as data.

    Determinism contract: {!memo} always returns the {e parsed} JSON of
    the entry's on-disk bytes — also on a miss, where the freshly
    computed value is serialized, written and re-parsed.  Since the
    serializer prints floats through a fixed format, a value read back
    from the cache is byte-for-byte the value a cold run reports, which
    is what makes cold and warm sweep reports identical.

    Lookup order: the disk entry first (only under [resume]), then a
    table local to this cache instance — one run — of every value it
    has computed, and only then the evaluator.  A warm run therefore
    still reads the disk on every evaluation, and a key repeated within
    a cold or diskless run (the ["area"] key is the same at every
    mean defect count) is computed, stored and parsed once; its later
    evaluations are served from memory and counted as [shared].  A key
    being computed is marked in that table: a second worker asking for
    it waits for the first instead of computing it again, so each
    distinct key is computed once per run at any number of workers.  If
    the computing worker raises, the mark is removed and a waiter
    computes the key itself.

    Writes are atomic (temp file + rename in the cache directory), so
    concurrent runs and interrupted runs leave either a complete entry
    or none; identical keys produce identical bytes, so a rename race
    between two runs sharing a directory is harmless.

    Self-healing: the cache treats its own disk state as untrusted.
    Orphaned temp files (a kill between write and rename) are reaped at
    {!create}; an entry that exists but fails verification is moved
    aside to [<entry>.quarantine] and recomputed; a read or write error
    (EIO, ENOSPC, permissions) degrades that evaluation to uncached.
    None of this changes any value {!memo} returns — a damaged cache
    only costs recomputation, so reports stay byte-identical.  Every
    event is counted in {!stats} and mirrored to {!Bisram_obs.Obs}
    counters ([cache.quarantined], [cache.reaped_tmp],
    [cache.io_errors]; lookups as [cache.hits], [cache.misses] and
    [cache.shared]) when telemetry is on. *)

type t

(** The cache-format version baked into every key. *)
val version : string

(** Lifetime event counters for one cache instance. *)
type stats = {
  st_hits : int;  (** served from a verified disk entry *)
  st_misses : int;  (** computed (and stored when there is a disk) *)
  st_shared : int;
      (** served from this run's table: the key was computed earlier
          in the run, or by another worker while this one waited.
          hits + misses + shared is the number of {!memo} calls; a key
          whose computation raised counts a second miss when a waiter
          or a retry computes it again. *)
  st_quarantined : int;  (** entries failing verification, moved aside *)
  st_reaped_tmp : int;  (** orphaned temp files removed at open *)
  st_io_errors : int;  (** reads/writes that degraded to uncached *)
}

(** [create ?dir ~resume ()] — a cache rooted at [dir] (created if
    missing; orphaned [.cache-*.tmp] files from killed runs are reaped
    on open).  Without [dir] nothing touches the disk: the first
    lookup of each key is a miss, whose result is only normalized
    (serialize + re-parse), and its repeats are shared.
    With [resume = false] existing entries are ignored (and
    overwritten), so the run is cache-cold by construction; hits can
    only happen when [resume] is set.
    @raise Sys_error when [dir] exists but is not a directory. *)
val create : ?dir:string -> resume:bool -> unit -> t

(** [memo t ~key compute] — the normalized cached value for [key]:
    from disk (under [resume]), else from this run's table, else
    computed, stored and added to the table.  Safe to call from pool
    workers: the counters are atomic, the table is guarded by a mutex,
    a worker waits on a key another one is computing, and writes go
    through unique temp files.  An exception from [compute] propagates
    to its caller and leaves the key unclaimed.  Never raises on cache
    damage or disk errors — those degrade to recomputation (see
    self-healing above). *)
val memo : t -> key:string -> (unit -> Bisram_obs.Json.t) -> Bisram_obs.Json.t

val stats : t -> stats
