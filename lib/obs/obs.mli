(** Lightweight observability for the profiling pipeline: named counters,
    gauges, monotonic timing spans and per-phase throughput meters in one
    global, domain-safe registry, with JSON and Prometheus exporters.

    The registry starts {e disabled}: every update is a single atomic flag
    load plus a branch, so instrumentation can sit in hot paths without
    perturbing the slowdown numbers the benchmarks measure. Enable it (CLI
    [--stats], bench harness) and a run yields a phase-by-phase cost
    breakdown. Counters are atomic, so profiler worker domains can publish
    concurrently. *)

(** Minimal JSON value type with compact/indented printers and a parser —
    used by the exporters, the bench harness's [BENCH_*.json] files, and
    their round-trip tests. No external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line rendering. *)

  val pretty : t -> string
  (** Indented rendering. *)

  val of_string : string -> (t, string) result
  val member : string -> t -> t option
  val get_int : t -> int option
  val get_float : t -> float option
  val get_string : t -> string option
end

(** Per-domain timeline tracing, exported as Chrome Trace Event JSON
    (loadable in chrome://tracing or Perfetto).

    Each domain owns a lock-free append-only buffer of timestamped events and
    becomes one track of the exported timeline; the parallel profiler's
    worker domains name their tracks via {!set_track}. Like the metrics
    registry, tracing starts {e disabled} and every emission is gated on one
    atomic flag load, so trace points can sit in hot paths for free. Enable
    it with [--trace FILE] on the CLI or [--trace] on the bench harness. *)
module Trace : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val is_enabled : unit -> bool

  val reset : unit -> unit
  (** Truncate every domain's buffer and forget track names. Only call when
      no other domain is tracing (between runs / experiments). *)

  val set_track : string -> unit
  (** Name the calling domain's track in the exported timeline. *)

  val instant : string -> unit

  val counter : string -> int -> unit
  (** A sample of a named counter track (e.g. a queue depth). *)

  val with_span : string -> (unit -> 'a) -> 'a
  (** A duration slice on the calling domain's track around [f]; calls [f]
      directly when disabled. *)

  val event_count : unit -> int
  (** Buffered events across all domains. *)

  val export : unit -> Json.t
  (** The buffered events as one Chrome Trace Event JSON document:
      [{"traceEvents": [...], "displayTimeUnit": "ms"}], with [ts] in
      microseconds and one [thread_name] metadata record per named track. *)

  val write : string -> unit

  val check : string -> (int * int, string) result
  (** Validate a Chrome Trace Event document: it parses, [traceEvents] is
      non-empty, each event has a [name], a known [ph], a numeric [ts] and
      integer [pid]/[tid], and [ts] never decreases on a (pid, tid) track.
      [Ok (events, tracks)], or [Error] naming the first broken rule. *)
end

(** Request-scoped span collection for the serve daemon. A handler domain
    installs a collector with {!Req.start} before dispatching a request;
    every {!Span.with_} that runs on that domain until {!Req.finish} —
    parse, cache lookup, the profiler's own phase spans, rendering — is
    recorded into the request's own span tree in addition to the global
    registry/timeline. One domain handles one request at a time, so the
    collector is plain domain-local state. Works even when the metrics
    registry and tracing are disabled. *)
module Req : sig
  type entry = {
    sp_name : string;
    sp_start_ns : int;  (** absolute monotonic nanoseconds *)
    sp_dur_ns : int;
    sp_depth : int;  (** nesting depth; 0 = top-level phase *)
  }

  type collector

  val start : unit -> unit
  (** Install a fresh collector on the calling domain, replacing any
      leftover from an abandoned request. *)

  val active : unit -> bool
  val current : unit -> collector option

  val add : name:string -> start_ns:int -> dur_ns:int -> unit
  (** Record a span not measured by {!Span.with_} — e.g. the queue wait a
      request suffered before any handler code ran. No-op without a
      collector. *)

  val finish : unit -> entry list
  (** Uninstall the collector and return its spans in chronological order
      (by start time). Empty list if none was installed. *)

  val entry_json : entry -> Json.t
end

(** Flight recorder: two fixed-size rings of completed request records. The
    main ring keeps the last N requests of any kind; the slow ring
    additionally retains the last M requests whose service time crossed a
    threshold — so a burst of fast traffic cannot evict the slow request you
    are trying to explain. Writers are concurrent request handlers; a single
    mutex per recorder is plenty at per-request rates. *)
module Flight : sig
  type record = {
    fr_id : string;  (** trace id, as returned in X-Trace-Id *)
    fr_route : string;  (** e.g. ["POST /profile"], or ["(shed)"] *)
    fr_status : int;  (** HTTP status answered *)
    fr_tier : string;  (** cache tier: mem | disk | miss | "-" *)
    fr_queue_ns : int;  (** time queued before a handler ran *)
    fr_service_ns : int;  (** handler time, excluding queue wait *)
    fr_done_at : float;  (** unix time at completion *)
    fr_spans : Req.entry list;  (** the request's span tree, chronological *)
  }

  type t

  val create :
    capacity:int -> slow_capacity:int -> slow_threshold_s:float -> t
  (** Capacities are clamped to at least 1; a negative threshold behaves
      as 0 (every request is "slow"). *)

  val record : t -> record -> unit
  val total : t -> int
  (** Records ever written (not capped by capacity). *)

  val slow_total : t -> int
  val capacity : t -> int
  val slow_threshold_ns : t -> int

  val recent : t -> record list
  (** The main ring's retained records, newest first. *)

  val slow : t -> record list

  val find : t -> string -> record option
  (** Look a trace id up in the main ring, then the slow ring (which
      outlives it for slow requests). *)

  val record_json : record -> Json.t

  val to_json : t -> Json.t
  (** Both rings plus capacities/thresholds/write totals, for
      [GET /requests] and the shutdown dump. *)

  val chrome_trace : record -> Json.t
  (** One request's spans as a Chrome Trace Event document (complete ['X']
      events on one track) — loads in chrome://tracing / Perfetto and
      passes [discopop trace-check]. A record with no spans (e.g. a shed
      request) yields one synthetic event so [traceEvents] is never
      empty. *)
end

val now_ns : unit -> int
(** The monotonic clock in nanoseconds — the same clock {!Span.with_} and
    {!Req} entries use, so callers can synthesize {!Req.entry} values (e.g.
    a queue wait measured outside any span) on a comparable timeline. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every metric's value; registrations survive. *)

type counter
type gauge
type span
type meter
type histogram

val counter : string -> counter
(** Find or register the counter [name]. Cheap after the first call. *)

val gauge : string -> gauge
val meter : string -> per:string -> meter
(** A throughput meter: events counted against the accumulated wall time of
    the span named [per]. *)

val histogram : string -> histogram
(** A log-bucketed latency histogram (4 sub-buckets per octave, so quantile
    estimates are within ~9% of the true value). Observation is atomic:
    concurrent domains (e.g. [discopop serve] request handlers) can observe
    without a lock. *)

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
end

module Gauge : sig
  val set : gauge -> float -> unit
  val set_int : gauge -> int -> unit
  val value : gauge -> float
end

module Span : sig
  val with_ : phase:string -> (unit -> 'a) -> 'a
  (** Time [f] with the monotonic clock and accumulate into the span named
      [phase] (created on first use); also emits a begin/end slice on the
      calling domain's {!Trace} track when tracing is enabled. When both
      layers are disabled, calls [f] directly. *)

  val ns : string -> int
  (** Accumulated nanoseconds of a phase; 0 if it never ran. *)

  val calls : string -> int
end

module Meter : sig
  val mark : meter -> int -> unit
  val count : meter -> int

  val rate : meter -> float
  (** Events per second over the [per] span's elapsed time; 0 when the span
      never ran. *)
end

module Histogram : sig
  val observe : histogram -> int -> unit
  (** Record one observation in nanoseconds (clamped at 0). No-op when the
      registry is disabled. *)

  val count : histogram -> int

  val quantile_ns : histogram -> float -> float
  (** The value at quantile [q] (clamped to [0,1]); 0 when empty. Exported
      snapshots carry p50/p90/p99 precomputed. *)

  val mean_ns : histogram -> float
  val max_ns : histogram -> int
end

val counter_value : string -> int
(** Current value of a counter by name; 0 if unregistered. *)

val publish_gc : unit -> unit
(** Snapshot {!Gc.quick_stat} into gauges ([gc.minor_words],
    [gc.major_words], [gc.promoted_words], [gc.minor_collections],
    [gc.major_collections]). No-op when disabled. Call at end of run, before
    exporting. *)

val gauge_value : string -> float

val snapshot : unit -> Json.t
(** All metrics as one JSON object with
    [counters]/[gauges]/[spans]/[meters]/[histograms] sections, each sorted
    by name. *)

val write_json : string -> unit

val prometheus : unit -> string
(** The registry in the Prometheus text exposition format
    ([text/plain; version=0.0.4]). Dotted names sanitize to underscore
    form; counters gain the conventional [_total] suffix; spans and meters
    render as labelled counter families; histograms become cumulative
    [_bucket]/[_sum]/[_count] series in seconds (a bucket line is emitted
    only where the count changes, closed by [le="+Inf"]). *)
