(** [discopop serve]: a resident profiling-as-a-service daemon.

    A hand-rolled HTTP/1.1 server (plain [Unix] sockets, no dependencies)
    that keeps the pipeline warm across requests: one acceptor domain feeds
    a bounded connection queue drained by a pool of persistent worker
    domains, with an in-process {!Pipeline.Mem_cache} LRU in front of the
    on-disk result cache.

    Every response carries an [X-Trace-Id] header; the id resolves through
    [GET /trace] while the request is within the flight-recorder window
    ({!Obs.Flight}), which retains the last [flight_capacity] completed
    requests plus an always-retained ring of slow ones.

    Endpoints (all connections are one-request, [Connection: close]):

    - [POST /profile] — body is MIL source ({!Mil.Parse.program} grammar).
      Query parameters: [name], [entry], [shadow=perfect|signature:N],
      [skip=true|false], [workers=N] (at most 8), [threads=N],
      [deadline=SECONDS] (clamped to the server deadline),
      [format=summary|depfile|json].
      Answers [200] with the suggestion summary (or Depfile v2 / a JSON
      envelope), [400] on parse or parameter errors, [504] when the deadline
      expires mid-profile (cooperative cancel) or the work ends past it
      ({!Pipeline.run_job}'s timeout rule), [500] when the job raises.
      The [X-Cache] response header says which tier answered:
      [mem], [disk] or [miss] (a miss renders from the freshly computed
      result, so [format=depfile|json] work with no cache configured).
    - [GET /metrics] — the {!Obs} registry snapshot as JSON, including
      [serve.requests.{ok,shed,timeout,failed,bad}] and
      [serve.cache.{mem_hit,disk_hit,miss}] counters, the
      [serve.queue.depth] gauge and the [serve.latency] /
      [serve.queue_wait] / [serve.service] histograms (latency from
      enqueue = queue wait + service). [?format=prometheus] renders the
      same registry in the Prometheus text format ({!Obs.prometheus});
      unknown formats answer [400].
    - [GET /trace?id=ID] — one request's span tree (queue-wait, parse,
      cache lookup, the profiler's own phases, render) as Chrome Trace
      Event JSON ({!Obs.Flight.chrome_trace}); [404] when the id has
      left the flight window, [400] without an [id].
    - [GET /requests] — both flight-recorder rings as JSON
      ({!Obs.Flight.to_json}).
    - [GET /health] — [200 ok].
    - [POST /shutdown] — answers [200], then stops the daemon cleanly.

    Admission control: a connection arriving while the queue holds
    [queue_capacity] others is answered [429] with [Retry-After: 1] straight
    from the acceptor, so overload degrades into cheap rejections — but the
    rejection still carries an [X-Trace-Id] and lands in the flight recorder
    as a [("(shed)", 429)] record. *)

type config = {
  port : int;              (** 0 = pick an ephemeral port (see {!port}) *)
  jobs : int;              (** worker domains (min 1) *)
  queue_capacity : int;    (** pending connections before load-shedding *)
  deadline_s : float;      (** per-request processing deadline *)
  cache_dir : string option;  (** disk cache tier; [None] = memory only *)
  cache_limits : Pipeline.Cache.limits;
  (** disk-tier retention, enforced by a sweep at each publish *)
  mem_capacity : int;      (** LRU entries; 0 disables the memory tier *)
  profile : Pipeline.Cache.config;
  (** per-request defaults, held to a request's checks (see {!start}) *)
  flight_capacity : int;   (** flight-recorder main ring (min 1) *)
  slow_capacity : int;     (** slow-request ring (min 1) *)
  slow_threshold_s : float;  (** service time that counts as slow *)
  flight_dump : string option;
  (** write both rings as JSON here on {!run} shutdown *)
}

val default_config : config
(** Port 8123, 4 workers, queue 32, 30s deadline, no disk cache, 128 LRU
    entries, {!Pipeline.Cache.default_config}; flight ring 512 + 64 slow
    at a 0.25s threshold, no dump file. *)

type t

val start : config -> t
(** Bind, listen on 127.0.0.1, and spawn the acceptor and worker domains.
    Enables the {!Obs} registry (the [/metrics] endpoint needs it) and
    ignores [SIGPIPE]. Raises [Invalid_argument] with the message a request
    would get (e.g. ["workers must be <= 8"]) before binding anything when
    [config.profile] fails {!Profiler.Profile.check} or asks for more than
    8 profiler workers. *)

val port : t -> int
(** The bound port — useful with [config.port = 0]. *)

val flight : t -> Obs.Flight.t
(** The daemon's flight recorder (tests inspect records directly). *)

val stopping : t -> bool

val stop : t -> unit
(** Flag shutdown and wake every domain (in-flight profile jobs see the
    flag through their cancel poll), then join the acceptor and workers (queued connections
    drain first), close the listener and any still-queued connections. *)

val run : config -> unit
(** [start], then block until [POST /shutdown], SIGINT or SIGTERM, then
    {!stop}. The CLI entry point. *)

(** A minimal HTTP/1.1 client for the daemon (tests, bench harness, smoke
    scripts): one blocking request per call over a fresh connection. *)
module Client : sig
  type response = {
    status : int;
    headers : (string * string) list;  (** names lowercased *)
    body : string;
  }

  val get : port:int -> string -> (response, string) result
  val post : port:int -> body:string -> string -> (response, string) result
end
