(** Exporters over the {!Obs} registry: {!Obs.snapshot} to metrics,
    Chrome-trace and table form, and {!Obs.drain_events} to the
    ["bisram-events/1"] JSONL log with its strict reader.  All output is
    deterministic in structure: object keys appear in a fixed order and
    collections are sorted, so two runs differ only where their measured
    numbers do. *)

(** Flat metrics document, schema ["bisram-metrics/1"]:
    [{"schema", "counters": {name: int, ...}, "histograms": {name:
    {count, sum, min, max, mean, buckets: [{pow2, count}]}, ...}}] with
    names sorted. *)
val metrics_json : Obs.snapshot -> Json.t

(** Chrome trace-event document (complete ["X"] events plus
    [thread_name] metadata, pid 0, tid = shard id), loadable in
    Perfetto or chrome://tracing.  Timestamps are rebased so the
    earliest span starts at [ts = 0] and converted to microseconds. *)
val chrome_trace_json : Obs.snapshot -> Json.t

(** Human-readable summary: spans aggregated by name (count / total /
    mean / min / max, by descending total time), then counters, then
    histogram summaries. *)
val stats_table : Obs.snapshot -> string

val level_to_string : Obs.level -> string
val level_of_string : string -> (Obs.level, string) result

(** One ["bisram-events/1"] JSONL object: [{"schema":…,"seq":…,"tid":…,
    "ts_ns":…,"level":…,"domain":…,"name":…,"fields":{…}}]. *)
val event_json : Obs.event -> Json.t

(** Strict inverse of {!event_json}: every envelope key required with
    the right type, schema tag checked, unknown keys rejected. *)
val event_of_json : Json.t -> (Obs.event, string) result

(** Strict parse of one JSONL line ({!Json.of_string} +
    {!event_of_json}). *)
val parse_event_line : string -> (Obs.event, string) result

(** Write events one compact JSON object per line. *)
val write_events_jsonl : out_channel -> Obs.event list -> unit
