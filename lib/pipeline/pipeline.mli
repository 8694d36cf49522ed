(** Batch pipeline driver: run the full profile -> CU -> discovery ->
    ranking pipeline over many workloads concurrently on a fixed set of
    worker domains, with a content-addressed on-disk result cache (one file
    per entry) behind an optional in-process LRU tier, per-job fault isolation
    (a raising or timed-out job is reported, not fatal, with one
    configurable retry) and {!Obs} wiring
    ([pipeline.jobs.{ok,failed,timeout,cache_hit,cache_miss}] counters,
    per-job spans on the trace timeline).

    Surfaced as [discopop batch] and reused by the bench harness's [batch]
    experiment. *)

(** A cached pipeline result: the dependence set phase 1 produced and the
    serialized suggestion summary ({!Discovery.Suggestion.summary_to_string})
    phases 2-3 derived from it. *)
type entry = Profiler.Dep.Set_.t * string

(** Content-addressed cache of pipeline results. The key is the hash of the
    rendered MIL program plus the profiler configuration (shadow kind, skip
    flag, worker count, thread count) — any change to program or config
    misses; an unchanged workload skips phase 1 entirely on re-runs. Each
    entry is one file under the cache directory, [<key>.entry]: a header
    line with the byte lengths of the summary and the Depfile v2 text that
    follow it, published by one rename. Files with any other extension
    (such as the [.deps]/[.sugg] pairs of format v2) are neither read nor
    swept. *)
module Cache : sig
  type config = {
    profile : Profiler.Profile.config;
    threads : int;   (** thread count assumed by the local-speedup metric *)
  }

  val default_config : config
  (** {!Profiler.Profile.default} and 4 threads — the defaults of
      {!Discovery.Suggestion.analyze}. *)

  val config_to_string : config -> string
  (** Canonical rendering hashed into the key:
      {!Profiler.Profile.to_string} then [ threads=N]. *)

  val key : config -> Mil.Ast.program -> string
  (** Hex digest of the rendered program + [config_to_string] + cache format
      version. *)

  (** Retention policy for the cache directory, enforced by {!sweep}.
      [None] in a field means unbounded on that axis. *)
  type limits = { max_bytes : int option; ttl_s : float option }

  val no_limits : limits

  val limits : ?max_mb:int -> ?ttl_s:float -> unit -> limits
  (** Convenience constructor; [max_mb] is converted to bytes. *)

  val load : dir:string -> key:string -> entry option
  (** The cached entry for [key], or [None] if its file is absent, cut
      short, or fails to parse (a malformed entry is a miss, never an
      error). A hit refreshes the file's mtime ([Unix.utimes]) so LRU
      eviction tracks reads, not just writes. *)

  val store :
    ?limits:limits ->
    dir:string ->
    key:string ->
    deps:Profiler.Dep.Set_.t ->
    summary:string ->
    unit ->
    unit
  (** Write the entry file atomically (temp file + one rename), creating
      [dir] if needed. Concurrent writers of the same key are safe: a
      reader sees one writer's whole entry. A failed write or rename
      removes the temp file and re-raises. With [limits]
      (default {!no_limits}), runs {!sweep} after publishing, shielding the
      just-written key. *)

  val sweep : ?keep:string -> dir:string -> limits -> int
  (** Enforce [limits] on the directory now: delete entries whose mtime is
      older than [ttl_s], then — while the directory's total size exceeds
      [max_bytes] — the least-recently-used remaining entries (oldest mtime
      first). An entry is one [<key>.entry] file; [keep] shields one key.
      Returns the number of entries evicted, also added to the
      [pipeline.cache.evicted] counter. With {!no_limits} this is a no-op. *)
end

(** In-process LRU tier in front of the disk cache, keyed by the same
    {!Cache.key} content hash. [discopop serve] answers repeat requests from
    here without touching the filesystem. All operations take an internal
    lock, so request-handler domains share one instance; entries are
    immutable once inserted. It keeps no tallies: callers count outcomes
    (serve's [serve.cache.*] counters). *)
module Mem_cache : sig
  type t

  val create : capacity:int -> t
  (** Holds at most [capacity] entries; inserting into a full cache evicts
      the least-recently-used one. [capacity <= 0] disables insertion (every
      lookup misses). *)

  val find : t -> string -> entry option
  (** Lookup by cache key; a hit promotes the entry to most-recently-used. *)

  val add : t -> string -> entry -> unit
end

type cache_tier = Mem | Disk

val lookup :
  ?mem:Mem_cache.t -> ?dir:string -> key:string -> unit ->
  (entry * cache_tier) option
(** Consult the memory tier, then the disk tier; a disk hit is promoted into
    [mem] so the next lookup is memory-resident. Returns the entry and the
    tier that answered, or [None] when neither holds [key]. *)

(** What a successful job yields. *)
type job_ok = {
  jr_suggestions : int;
  jr_cache_hit : bool;       (** phase 1 was skipped entirely *)
  jr_entry : entry;
  (** the entry the job computed or loaded — what {!lookup} returns, so a
      renderer can use a fresh result without re-reading the just-written
      cache tier *)
}

type status =
  | Ok_ of job_ok
  | Failed of string         (** the job raised; the exception message *)
  | Timed_out

(** A batch job: [j_run] may raise (isolated by the driver) and must poll
    [cancelled] in any long loop: a timed-out attempt keeps its worker
    until it returns, so a job that never polls holds the worker (and
    delays the batch) for as long as it runs. Every job built here polls
    through the interpreter, every ~2k statements. *)
type job = {
  j_name : string;
  j_run : cancelled:(unit -> bool) -> job_ok;
}

type job_result = {
  r_name : string;
  r_status : status;
  r_attempts : int;
  r_wall_s : float;          (** wall time of the recorded (last) attempt *)
}

type report = {
  b_results : job_result list;  (** in submission order, one per job *)
  b_ok : int;
  b_failed : int;
  b_timeout : int;
  b_cache_hits : int;
  b_cache_misses : int;
  b_wall_s : float;
}

val program_job :
  ?cache_dir:string -> ?cache_limits:Cache.limits -> ?mem:Mem_cache.t ->
  name:string -> config:Cache.config -> Mil.Ast.program -> job
(** The full pipeline over an arbitrary MIL program (e.g. one POSTed to
    [discopop serve] and parsed with {!Mil.Parse.program}): consult the
    memory then disk cache tiers, else profile per [config] — polling
    [cancelled] so a deadline can abort mid-run — analyze, summarize, and
    populate both tiers. [cache_limits] (default {!Cache.no_limits}) is
    enforced by a sweep at each disk publish. *)

val uncached_job :
  ?cache_dir:string -> ?cache_limits:Cache.limits -> ?mem:Mem_cache.t ->
  name:string -> config:Cache.config -> key:string -> Mil.Ast.program -> job
(** {!program_job} for a program the caller has already looked up under
    [key] (its {!Cache.key}) and found in neither tier: profile, analyze,
    summarize and populate both tiers, with no second key or lookup. A
    disk publish that fails ([Sys_error] or [Unix_error]) is counted in
    [pipeline.cache.publish_failed]; the job still returns its result and
    fills the memory tier. *)

val workload_job :
  ?cache_dir:string -> ?cache_limits:Cache.limits -> config:Cache.config ->
  Workloads.Registry.t -> job
(** {!program_job} over one registry workload, built inside the job so a
    raising builder is isolated like any other fault. *)

val run_job : deadline:float -> stop:bool Atomic.t -> job -> status
(** Run one attempt of a job on the calling domain under the one timeout
    rule both drivers share. The job's [cancelled] poll returns true once
    [stop] is set or the clock ({!Unix.gettimeofday}) passes the absolute
    time [deadline]. An attempt that raises {!Mil.Interp.Cancelled}, or
    that ends past [deadline] whatever it returned, is [Timed_out]; any
    other raise is [Failed]. Bumps the same [pipeline.jobs.*] counters as
    the batch driver. *)

val run_batch :
  ?jobs:int -> ?timeout_s:float -> ?retries:int -> job list -> report
(** Run the jobs on [min jobs n] worker domains ([jobs] default 4, at
    least 1): each worker takes the next job in submission order and runs
    its attempts one after another, so at most [jobs] attempts are ever in
    flight. Each attempt follows {!run_job}'s rule with a deadline
    [timeout_s] (default 120) after it starts: a raise is [Failed], an
    overrun is cancelled through the job's poll and [Timed_out]. [retries]
    (default 1) extra attempts are granted per failed or timed-out job, run
    next on the same worker. The batch returns once every worker has
    finished, with a full report; [pipeline.jobs.{ok,failed,timeout}] count
    each job's final status once, [pipeline.jobs.{cache_hit,cache_miss}]
    each succeeded job once (as [b_cache_hits]/[b_cache_misses] do), and
    [pipeline.jobs.retried] each retry. *)

val render : report -> string
(** Human-readable per-job table plus totals. *)

val report_to_json : ?suite:string -> report -> Obs.Json.t
(** The batch report as JSON ([--json OUT]): totals, cache hit/miss counts,
    and per-job rows including the raw summary text (so warm-vs-cold runs
    can be compared byte-for-byte). *)
