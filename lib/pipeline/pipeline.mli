(** Batch pipeline driver: run the full profile -> CU -> discovery ->
    ranking pipeline over many workloads concurrently across a bounded pool
    of domains, with a content-addressed on-disk result cache, per-job fault
    isolation (a raising or timed-out job is reported, not fatal, with one
    configurable retry) and {!Obs} wiring
    ([pipeline.jobs.{ok,failed,timeout,cache_hit,cache_miss}] counters,
    per-job spans on the trace timeline).

    Surfaced as [discopop batch] and reused by the bench harness's [batch]
    experiment. *)

(** Content-addressed cache of pipeline results. The key is the hash of the
    rendered MIL program plus the profiler configuration (shadow kind, skip
    flag, worker count, thread count) — any change to program or config
    misses; an unchanged workload skips phase 1 entirely on re-runs. Each
    entry is two files under the cache directory: [<key>.deps] (Depfile v2)
    and [<key>.sugg] (serialized suggestion summary,
    {!Discovery.Suggestion.summary_to_string}). *)
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

  val load :
    dir:string -> key:string -> (Profiler.Dep.Set_.t * string) option
  (** The cached (dependences, suggestion-summary text) for [key], or [None]
      if either file is absent or fails to parse (a malformed entry is a
      miss, never an error). A hit refreshes the entry's mtime
      ([Unix.utimes]) so LRU eviction tracks reads, not just writes. *)

  val store :
    ?limits:limits ->
    dir:string ->
    key:string ->
    deps:Profiler.Dep.Set_.t ->
    summary:string ->
    unit ->
    unit
  (** Write both files atomically (temp file + rename), creating [dir] if
      needed; concurrent writers of the same key are safe. With [limits]
      (default {!no_limits}), runs {!sweep} after publishing, shielding the
      just-written key. *)

  val sweep : ?keep:string -> dir:string -> limits -> int
  (** Enforce [limits] on the directory now: delete entries whose mtime is
      older than [ttl_s], then — while the directory's total size exceeds
      [max_bytes] — the least-recently-used remaining entries (oldest mtime
      first). An entry is the [<key>.deps]/[<key>.sugg] pair; [keep] shields
      one key. Returns the number of entries evicted, also added to the
      [pipeline.cache.evicted] counter. With {!no_limits} this is a no-op. *)
end

(** In-process LRU tier in front of the disk cache, keyed by the same
    {!Cache.key} content hash. [discopop serve] answers repeat requests from
    here without touching the filesystem. All operations take an internal
    lock, so request-handler domains share one instance; entries are
    immutable once inserted. *)
module Mem_cache : sig
  type t

  val create : capacity:int -> t
  (** Holds at most [capacity] entries; inserting into a full cache evicts
      the least-recently-used one. [capacity <= 0] disables insertion (every
      lookup misses). *)

  val find : t -> string -> (Profiler.Dep.Set_.t * string) option
  (** Lookup by cache key; a hit promotes the entry to most-recently-used.
      Hits and misses are counted (see {!hits}/{!misses}). *)

  val add : t -> string -> Profiler.Dep.Set_.t * string -> unit
  val invalidate : t -> string -> unit
  (** Drop one key (e.g. after deleting the disk entry, to keep the tiers
      coherent); unknown keys are ignored. *)

  val clear : t -> unit
  val length : t -> int
  val capacity : t -> int
  val hits : t -> int
  val misses : t -> int

  val keys_mru_first : t -> string list
  (** Resident keys, most-recently-used first (eviction takes the last). *)
end

type cache_tier = Mem | Disk | Uncached

val lookup :
  ?mem:Mem_cache.t -> ?dir:string -> key:string -> unit ->
  (Profiler.Dep.Set_.t * string) option * cache_tier
(** Consult the memory tier, then the disk tier; a disk hit is promoted into
    [mem] so the next lookup is memory-resident. Returns the entry (if any)
    and which tier answered. *)

(** What a successful job yields. *)
type job_ok = {
  jr_summary : string;       (** serialized suggestion summary *)
  jr_deps : int;             (** distinct dependence records *)
  jr_suggestions : int;
  jr_cache_hit : bool;       (** phase 1 was skipped entirely *)
  jr_entry : Profiler.Dep.Set_.t * string;
  (** the dependence set + summary the job computed or loaded — the same
      shape {!lookup} returns, so a renderer can use a fresh result without
      re-reading the just-written cache tier *)
}

type status =
  | Ok_ of job_ok
  | Failed of string         (** the job raised; the exception message *)
  | Timed_out

(** A batch job: [j_run] may raise (isolated by the driver) and should poll
    [cancelled] in any long loop so a timed-out attempt can wind down
    instead of burning a domain until process exit. *)
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
    summarize and populate both tiers, with no second key or lookup. *)

val workload_job :
  ?cache_dir:string -> ?cache_limits:Cache.limits -> ?mem:Mem_cache.t ->
  ?size:int -> config:Cache.config -> Workloads.Registry.t -> job
(** {!program_job} over one registry workload, built inside the job so a
    raising builder is isolated like any other fault. *)

val run_job : cancelled:(unit -> bool) -> job -> status
(** Run one job on the calling domain, outside the batch pool: a raise is
    [Failed], {!Mil.Interp.Cancelled} (the [cancelled] poll fired mid-run)
    is [Timed_out]. Bumps the same [pipeline.jobs.*] counters as the batch
    driver. *)

val run_batch :
  ?jobs:int -> ?timeout_s:float -> ?retries:int -> job list -> report
(** Run the jobs over at most [jobs] (default 4) concurrent domains. An
    attempt that raises is [Failed]; one exceeding [timeout_s] (default 120)
    is cancelled and, if it ignores the flag, abandoned — the batch always
    completes with a full report. [retries] (default 1) extra attempts are
    granted per failed or timed-out job. *)

val render : report -> string
(** Human-readable per-job table plus totals. *)

val report_to_json : ?suite:string -> report -> Obs.Json.t
(** The batch report as JSON ([--json OUT]): totals, cache hit/miss counts,
    and per-job rows including the raw summary text (so warm-vs-cold runs
    can be compared byte-for-byte). *)
