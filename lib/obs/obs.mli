(** Lightweight observability for the profiling pipeline: named counters,
    gauges, monotonic timing spans and latency histograms in one global,
    domain-safe registry, with JSON and Prometheus exporters.

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
    it with [--trace FILE] on the CLI or [--trace] on the bench harness.

    The same buffers hold the serve daemon's request span trees: a request
    marks its domain's buffer with {!start_request}, every {!Span.with_}
    on that domain records there until {!finish_request} even with tracing
    off, and the request's tree is the slice after the mark. One domain
    handles one request at a time. *)
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
      directly unless tracing is on or a request is open on this domain. *)

  type span = {
    sp_name : string;
    sp_start_ns : int;  (** absolute monotonic nanoseconds *)
    sp_dur_ns : int;
    sp_depth : int;  (** nesting depth; 0 = top-level phase *)
  }
  (** One completed slice of a request's span tree. *)

  val start_request : unit -> unit
  (** Mark the calling domain's buffer: spans record from here on, tracing
      on or off, until the {!finish_request} each start is paired with. *)

  val finish_request : unit -> span list
  (** Pair the begin/end events after the mark into spans, in begin order,
      and clear the mark. With tracing off the buffer is truncated back to
      the mark, so the request leaves no events behind. Empty without a
      mark. *)

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
    fr_spans : Trace.span list;  (** the request's span tree, chronological *)
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
    {!Trace} events use, so callers can synthesize {!Trace.span} values
    (e.g. a queue wait measured outside any span) on a comparable
    timeline. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every metric's value; registrations survive. *)

type counter
type gauge
type span
type histogram

val counter : string -> counter
(** Find or register the counter [name]. Cheap after the first call. *)

val gauge : string -> gauge
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
      [phase] (created on first use) when the registry is enabled; also
      pushes a begin/end slice into the calling domain's {!Trace} buffer
      when tracing is on or a request is open there. When neither holds,
      calls [f] directly. *)

  val ns : string -> int
  (** Accumulated nanoseconds of a phase; 0 if it never ran. *)

  val calls : string -> int
end

module Histogram : sig
  val observe : histogram -> int -> unit
  (** Record one observation in nanoseconds (clamped at 0). No-op when the
      registry is disabled. *)

  val count : histogram -> int

  val mean_ns : histogram -> float
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
    [counters]/[gauges]/[spans]/[histograms] sections, each sorted
    by name. *)

val write_json : string -> unit

val prometheus : unit -> string
(** The registry in the Prometheus text exposition format
    ([text/plain; version=0.0.4]). Dotted names sanitize to underscore
    form; counters gain the conventional [_total] suffix; spans render as
    labelled counter families; histograms become cumulative
    [_bucket]/[_sum]/[_count] series in seconds (a bucket line is emitted
    only where the count changes, closed by [le="+Inf"]). *)
