(* Batch pipeline driver with a content-addressed result cache.

   The ROADMAP's production north star needs profiling cost amortized across
   runs: every `discopop` invocation used to re-run phases 1-3 for a single
   workload from scratch, and the bench harness re-profiled identical
   programs across experiments. Here a batch of workloads runs concurrently
   over a bounded pool of domains, phase-1 results are keyed by the content
   hash of (program, profiler config) and persisted on disk, and a job that
   raises or overruns its deadline is reported — never fatal to the batch. *)

module Suggestion = Discovery.Suggestion

let now () = Unix.gettimeofday ()

(* ---- Obs wiring ---- *)

let c_ok = Obs.counter "pipeline.jobs.ok"
let c_failed = Obs.counter "pipeline.jobs.failed"
let c_timeout = Obs.counter "pipeline.jobs.timeout"
let c_cache_hit = Obs.counter "pipeline.jobs.cache_hit"
let c_cache_miss = Obs.counter "pipeline.jobs.cache_miss"
let c_retried = Obs.counter "pipeline.jobs.retried"
let c_evicted = Obs.counter "pipeline.cache.evicted"

(* ---- content-addressed cache ---- *)

module Cache = struct
  type config = { profile : Profiler.Profile.config; threads : int }

  let default_config = { profile = Profiler.Profile.default; threads = 4 }

  (* Bump when the cached representation changes shape (depfile format,
     summary format, scoring semantics) or the profile behind it changes
     (v2: scope exits free locals in stack order, which moves instance
     counts and witnesses): old entries then miss instead of round-tripping
     stale bytes. *)
  let format_version = 2

  let config_to_string (c : config) =
    Printf.sprintf "%s threads=%d" (Profiler.Profile.to_string c.profile)
      c.threads

  let key (c : config) (prog : Mil.Ast.program) : string =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "discopop-cache v%d\n%s\n%s" format_version
            (config_to_string c)
            (Mil.Pretty.render_program prog)))

  let deps_path ~dir ~key = Filename.concat dir (key ^ ".deps")
  let sugg_path ~dir ~key = Filename.concat dir (key ^ ".sugg")

  type limits = { max_bytes : int option; ttl_s : float option }

  let no_limits = { max_bytes = None; ttl_s = None }

  let limits ?max_mb ?ttl_s () =
    { max_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_mb; ttl_s }

  (* mtime doubles as the recency stamp: {!load} touches both files of an
     entry on a hit, so LRU-by-mtime sees reads, not just writes. *)
  let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

  (* One entry = the <key>.deps / <key>.sugg pair; its size is the pair's
     total bytes, its recency the newer of the two mtimes. Files vanishing
     mid-scan (a concurrent sweep) are skipped, never an error. *)
  let entries dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
        let tbl = Hashtbl.create 32 in
        Array.iter
          (fun f ->
            match Filename.extension f with
            | ".deps" | ".sugg" -> (
                match Unix.stat (Filename.concat dir f) with
                | exception Unix.Unix_error _ -> ()
                | st ->
                    let key = Filename.remove_extension f in
                    let sz, mt =
                      try Hashtbl.find tbl key with Not_found -> (0, 0.0)
                    in
                    Hashtbl.replace tbl key
                      ( sz + st.Unix.st_size,
                        Float.max mt st.Unix.st_mtime ))
            | _ -> ())
          files;
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

  let remove_entry ~dir ~key =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ deps_path ~dir ~key; sugg_path ~dir ~key ]

  (* Evict expired entries (mtime older than the TTL), then — if the
     directory still exceeds the byte budget — least-recently-used entries,
     oldest mtime first, until it fits. [keep] shields a key (the one just
     published) from eviction regardless of budget pressure. Returns the
     number of entries removed; also counted on [pipeline.cache.evicted]. *)
  let sweep ?keep ~dir (l : limits) : int =
    if l.max_bytes = None && l.ttl_s = None then 0
    else begin
      let now = Unix.gettimeofday () in
      let keep_key k = keep = Some k in
      let evicted = ref 0 in
      let evict key =
        remove_entry ~dir ~key;
        incr evicted
      in
      let live = entries dir in
      let live =
        match l.ttl_s with
        | None -> live
        | Some ttl ->
            List.filter
              (fun (k, (_, mt)) ->
                if (not (keep_key k)) && now -. mt > ttl then begin
                  evict k;
                  false
                end
                else true)
              live
      in
      (match l.max_bytes with
      | None -> ()
      | Some budget ->
          let total =
            List.fold_left (fun acc (_, (sz, _)) -> acc + sz) 0 live
          in
          let by_age =
            List.sort (fun (_, (_, a)) (_, (_, b)) -> compare a b) live
          in
          let rec drop total = function
            | [] -> ()
            | _ when total <= budget -> ()
            | (k, (sz, _)) :: rest ->
                if keep_key k then drop total rest
                else begin
                  evict k;
                  drop (total - sz) rest
                end
          in
          drop total by_age);
      Obs.Counter.add c_evicted !evicted;
      !evicted
    end

  let read_file path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try Some (really_input_string ic (in_channel_length ic))
            with Sys_error _ | End_of_file -> None)

  let load ~dir ~key : (Profiler.Dep.Set_.t * string) option =
    match Profiler.Depfile.read_opt (deps_path ~dir ~key) with
    | None -> None
    | Some deps -> (
        match read_file (sugg_path ~dir ~key) with
        | None -> None
        | Some summary -> (
            (* A summary that no longer parses is a miss: the job re-runs
               and overwrites the entry. *)
            match Suggestion.summary_of_string summary with
            | Ok _ ->
                (* refresh the recency stamp so LRU eviction spares entries
                   that are actually being read *)
                touch (deps_path ~dir ~key);
                touch (sugg_path ~dir ~key);
                Some (deps, summary)
            | Error _ -> None))

  (* Atomic publish: write to a unique temp file in the cache directory,
     then rename over the final name. Concurrent jobs storing the same key
     race benignly — both write identical bytes. *)
  let write_atomic path contents =
    let dir = Filename.dirname path in
    let tmp =
      Filename.temp_file ~temp_dir:dir "discopop" ".tmp"
    in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    Sys.rename tmp path

  let rec mkdir_p dir =
    if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let store ?(limits = no_limits) ~dir ~key ~deps ~summary () =
    mkdir_p dir;
    write_atomic (deps_path ~dir ~key) (Profiler.Depfile.render deps);
    write_atomic (sugg_path ~dir ~key) summary;
    (* publish-time sweep: the just-written entry is shielded, so a budget
       smaller than one entry still leaves the latest result readable *)
    ignore (sweep ~keep:key ~dir limits)
end

(* ---- in-process memory cache tier ---- *)

(* An LRU of recent pipeline results keyed by the same content hash as the
   disk cache, sitting in front of it. [discopop serve] answers repeat
   requests from here without touching the filesystem; the disk tier
   persists across processes. Entries are immutable after insertion, so a
   value handed out under the lock is safe to read from any domain. *)
module Mem_cache = struct
  type t = {
    mc_cap : int;
    mc_lock : Mutex.t;
    mc_tbl : (string, Profiler.Dep.Set_.t * string) Hashtbl.t;
    (* Most-recently-used first. Capacities are small (tens to hundreds),
       so the O(n) promote/evict list walk is noise next to a request. *)
    mutable mc_order : string list;
    mutable mc_hits : int;
    mutable mc_misses : int;
  }

  let create ~capacity =
    { mc_cap = max 0 capacity;
      mc_lock = Mutex.create ();
      mc_tbl = Hashtbl.create 64;
      mc_order = [];
      mc_hits = 0;
      mc_misses = 0 }

  let with_lock t f =
    Mutex.lock t.mc_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mc_lock) f

  let capacity t = t.mc_cap
  let length t = with_lock t (fun () -> Hashtbl.length t.mc_tbl)
  let hits t = with_lock t (fun () -> t.mc_hits)
  let misses t = with_lock t (fun () -> t.mc_misses)

  let find t key =
    with_lock t @@ fun () ->
    match Hashtbl.find_opt t.mc_tbl key with
    | Some v ->
        t.mc_hits <- t.mc_hits + 1;
        t.mc_order <- key :: List.filter (fun k -> k <> key) t.mc_order;
        Some v
    | None ->
        t.mc_misses <- t.mc_misses + 1;
        None

  let add t key v =
    if t.mc_cap > 0 then
      with_lock t @@ fun () ->
      Hashtbl.replace t.mc_tbl key v;
      t.mc_order <- key :: List.filter (fun k -> k <> key) t.mc_order;
      if Hashtbl.length t.mc_tbl > t.mc_cap then begin
        (* Evict the least-recently-used entry: last in the order list. *)
        match List.rev t.mc_order with
        | victim :: _ ->
            Hashtbl.remove t.mc_tbl victim;
            t.mc_order <- List.filter (fun k -> k <> victim) t.mc_order
        | [] -> ()
      end

  let invalidate t key =
    with_lock t @@ fun () ->
    Hashtbl.remove t.mc_tbl key;
    t.mc_order <- List.filter (fun k -> k <> key) t.mc_order

  let clear t =
    with_lock t @@ fun () ->
    Hashtbl.reset t.mc_tbl;
    t.mc_order <- []

  let keys_mru_first t = with_lock t (fun () -> t.mc_order)
end

type cache_tier = Mem | Disk | Uncached

let lookup ?mem ?dir ~key () :
    (Profiler.Dep.Set_.t * string) option * cache_tier =
  match Option.bind mem (fun m -> Mem_cache.find m key) with
  | Some v -> (Some v, Mem)
  | None -> (
      match Option.bind dir (fun d -> Cache.load ~dir:d ~key) with
      | Some v ->
          (* Promote disk hits so the next lookup is memory-resident. *)
          Option.iter (fun m -> Mem_cache.add m key v) mem;
          (Some v, Disk)
      | None -> (None, Uncached))

(* ---- jobs ---- *)

type job_ok = {
  jr_summary : string;
  jr_deps : int;
  jr_suggestions : int;
  jr_cache_hit : bool;
  jr_entry : Profiler.Dep.Set_.t * string;
}

type status = Ok_ of job_ok | Failed of string | Timed_out

type job = {
  j_name : string;
  j_run : cancelled:(unit -> bool) -> job_ok;
}

type job_result = {
  r_name : string;
  r_status : status;
  r_attempts : int;
  r_wall_s : float;
}

type report = {
  b_results : job_result list;
  b_ok : int;
  b_failed : int;
  b_timeout : int;
  b_cache_hits : int;
  b_cache_misses : int;
  b_wall_s : float;
}

let job_ok ~cache_hit entries ((deps, summary) as entry) =
  { jr_summary = summary;
    jr_deps = Profiler.Dep.Set_.cardinal deps;
    jr_suggestions = List.length entries;
    jr_cache_hit = cache_hit;
    jr_entry = entry }

let uncached_job ?cache_dir ?(cache_limits = Cache.no_limits) ?mem ~name
    ~(config : Cache.config) ~key (prog : Mil.Ast.program) : job =
  let run ~cancelled =
    Obs.Counter.incr c_cache_miss;
    let profile = Profiler.Profile.run ~cancelled config.Cache.profile prog in
    let report =
      Suggestion.analyze_profiled ~threads:config.Cache.threads prog profile
    in
    let entries = Suggestion.summarize report in
    let summary = Suggestion.summary_to_string ~name entries in
    let deps = profile.Profiler.Serial.deps in
    Option.iter
      (fun dir -> Cache.store ~limits:cache_limits ~dir ~key ~deps ~summary ())
      cache_dir;
    Option.iter (fun m -> Mem_cache.add m key (deps, summary)) mem;
    job_ok ~cache_hit:false entries (deps, summary)
  in
  { j_name = name; j_run = run }

let program_job ?cache_dir ?cache_limits ?mem ~name ~(config : Cache.config)
    (prog : Mil.Ast.program) : job =
  let run ~cancelled =
    let key = Cache.key config prog in
    match lookup ?mem ?dir:cache_dir ~key () with
    | Some ((_, summary) as entry), _tier ->
        Obs.Counter.incr c_cache_hit;
        (* Every tier holds summaries that parse: load validates them. *)
        let entries = Suggestion.summary_of_string summary in
        job_ok ~cache_hit:true (Result.value entries ~default:[]) entry
    | None, _ ->
        (uncached_job ?cache_dir ?cache_limits ?mem ~name ~config ~key prog)
          .j_run ~cancelled
  in
  { j_name = name; j_run = run }

let workload_job ?cache_dir ?cache_limits ?mem ?size ~(config : Cache.config)
    (w : Workloads.Registry.t) : job =
  let name = w.Workloads.Registry.name in
  (* Build the program inside the job so a raising builder is isolated by
     the driver like any other job fault. *)
  { j_name = name;
    j_run =
      (fun ~cancelled ->
        let prog = Workloads.Registry.program ?size w in
        (program_job ?cache_dir ?cache_limits ?mem ~name ~config prog).j_run
          ~cancelled) }

(* One job outside the batch driver: run it on the calling domain with the
   caller's cancel flag, isolating faults into a [status]. A poll that fires
   mid-profile surfaces as {!Mil.Interp.Cancelled}, reported [Timed_out] —
   the serve daemon's deadline watchdog relies on this. *)
let run_job ~cancelled (j : job) : status =
  match j.j_run ~cancelled with
  | ok ->
      Obs.Counter.incr c_ok;
      Ok_ ok
  | exception Mil.Interp.Cancelled ->
      Obs.Counter.incr c_timeout;
      Timed_out
  | exception e ->
      Obs.Counter.incr c_failed;
      Failed (Printexc.to_string e)

(* ---- the bounded-pool driver ---- *)

type outcome = Pending | Done of (job_ok, string) result

type running = {
  run_idx : int;
  run_attempt : int;
  run_started : float;
  run_cancel : bool Atomic.t;
  run_slot : outcome Atomic.t;
  run_domain : unit Domain.t;
}

let spawn_attempt (jobs : job array) idx attempt : running =
  let j = jobs.(idx) in
  let cancel = Atomic.make false in
  let slot = Atomic.make Pending in
  let domain =
    Domain.spawn (fun () ->
        (* Each attempt is its own domain, hence its own trace track; the
           span makes the job's extent visible on the timeline. *)
        Obs.Trace.set_track
          (Printf.sprintf "batch %s#%d" j.j_name attempt);
        let out =
          try
            Ok
              (Obs.Trace.with_span ("job." ^ j.j_name) (fun () ->
                   j.j_run ~cancelled:(fun () -> Atomic.get cancel)))
          with e -> Error (Printexc.to_string e)
        in
        Atomic.set slot (Done out))
  in
  { run_idx = idx; run_attempt = attempt; run_started = now ();
    run_cancel = cancel; run_slot = slot; run_domain = domain }

let run_batch ?(jobs = 4) ?(timeout_s = 120.0) ?(retries = 1)
    (js : job list) : report =
  Obs.Span.with_ ~phase:"pipeline.batch" @@ fun () ->
  let pool = max 1 jobs in
  let jobs_arr = Array.of_list js in
  let n = Array.length jobs_arr in
  let results : job_result option array = Array.make n None in
  let pending = Queue.create () in
  Array.iteri (fun i _ -> Queue.push (i, 1) pending) jobs_arr;
  let running = ref [] in
  let abandoned = ref [] in
  let t0 = now () in
  (* A failed or timed-out attempt either requeues (retry budget left) or
     records the job's final status. *)
  let settle (r : running) (st : status) =
    let wall = now () -. r.run_started in
    let retriable = match st with Ok_ _ -> false | _ -> true in
    if retriable && r.run_attempt <= retries then begin
      Obs.Counter.incr c_retried;
      Queue.push (r.run_idx, r.run_attempt + 1) pending
    end
    else begin
      (match st with
      | Ok_ _ -> Obs.Counter.incr c_ok
      | Failed _ -> Obs.Counter.incr c_failed
      | Timed_out -> Obs.Counter.incr c_timeout);
      results.(r.run_idx) <-
        Some
          { r_name = jobs_arr.(r.run_idx).j_name;
            r_status = st;
            r_attempts = r.run_attempt;
            r_wall_s = wall }
    end
  in
  while not (Queue.is_empty pending) || !running <> [] do
    while List.length !running < pool && not (Queue.is_empty pending) do
      let idx, attempt = Queue.pop pending in
      running := spawn_attempt jobs_arr idx attempt :: !running
    done;
    running :=
      List.filter
        (fun r ->
          match Atomic.get r.run_slot with
          | Done out ->
              Domain.join r.run_domain;
              settle r
                (match out with Ok ok -> Ok_ ok | Error msg -> Failed msg);
              false
          | Pending when now () -. r.run_started > timeout_s ->
              (* Ask the attempt to wind down; whether it listens or not,
                 the batch moves on. The domain is reaped below if the job
                 honours the flag, and dies with the process otherwise. *)
              Atomic.set r.run_cancel true;
              abandoned := r :: !abandoned;
              settle r Timed_out;
              false
          | Pending -> true)
        !running;
    if !running <> [] then Unix.sleepf 0.001
  done;
  (* Grace period for cancelled attempts that poll the flag: join the ones
     that finish so their domains are not leaked. *)
  let grace_deadline = now () +. 0.5 in
  List.iter
    (fun r ->
      let rec wait () =
        match Atomic.get r.run_slot with
        | Done _ -> Domain.join r.run_domain
        | Pending when now () < grace_deadline ->
            Unix.sleepf 0.005;
            wait ()
        | Pending -> ()
      in
      wait ())
    !abandoned;
  let results =
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None -> assert false (* every job settles exactly once *))
  in
  let count p = List.length (List.filter p results) in
  let cache_hits, cache_misses =
    List.fold_left
      (fun (h, m) r ->
        match r.r_status with
        | Ok_ { jr_cache_hit = true; _ } -> (h + 1, m)
        | Ok_ { jr_cache_hit = false; _ } -> (h, m + 1)
        | Failed _ | Timed_out -> (h, m))
      (0, 0) results
  in
  { b_results = results;
    b_ok = count (fun r -> match r.r_status with Ok_ _ -> true | _ -> false);
    b_failed =
      count (fun r -> match r.r_status with Failed _ -> true | _ -> false);
    b_timeout = count (fun r -> r.r_status = Timed_out);
    b_cache_hits = cache_hits;
    b_cache_misses = cache_misses;
    b_wall_s = now () -. t0 }

(* ---- reporting ---- *)

let status_string = function
  | Ok_ { jr_cache_hit = true; _ } -> "ok (cached)"
  | Ok_ _ -> "ok"
  | Failed _ -> "failed"
  | Timed_out -> "timeout"

let render (r : report) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %-12s %8s %6s %9s  %s\n" "workload" "status" "deps"
       "sugg" "wall" "detail");
  List.iter
    (fun jr ->
      let deps, sugg, detail =
        match jr.r_status with
        | Ok_ ok -> (string_of_int ok.jr_deps,
                     string_of_int ok.jr_suggestions, "")
        | Failed msg -> ("-", "-", msg)
        | Timed_out -> ("-", "-", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %-12s %8s %6s %8.2fs  %s%s\n" jr.r_name
           (status_string jr.r_status) deps sugg jr.r_wall_s detail
           (if jr.r_attempts > 1 then
              Printf.sprintf " (%d attempts)" jr.r_attempts
            else "")))
    r.b_results;
  Buffer.add_string buf
    (Printf.sprintf
       "batch: %d ok, %d failed, %d timeout; cache %d hit / %d miss; %.2fs\n"
       r.b_ok r.b_failed r.b_timeout r.b_cache_hits r.b_cache_misses
       r.b_wall_s);
  Buffer.contents buf

let report_to_json ?suite (r : report) : Obs.Json.t =
  let open Obs.Json in
  let job jr =
    let base =
      [ ("name", String jr.r_name);
        ("status",
         String
           (match jr.r_status with
           | Ok_ _ -> "ok"
           | Failed _ -> "failed"
           | Timed_out -> "timeout"));
        ("attempts", Int jr.r_attempts);
        ("wall_s", Float jr.r_wall_s) ]
    in
    let extra =
      match jr.r_status with
      | Ok_ ok ->
          [ ("cached", Bool ok.jr_cache_hit);
            ("deps", Int ok.jr_deps);
            ("suggestions", Int ok.jr_suggestions);
            ("summary", String ok.jr_summary) ]
      | Failed msg -> [ ("error", String msg) ]
      | Timed_out -> []
    in
    Obj (base @ extra)
  in
  Obj
    ([ ("schema_version", Int 1) ]
    @ (match suite with Some s -> [ ("suite", String s) ] | None -> [])
    @ [ ("jobs_total", Int (List.length r.b_results));
        ("ok", Int r.b_ok);
        ("failed", Int r.b_failed);
        ("timeout", Int r.b_timeout);
        ("cache_hits", Int r.b_cache_hits);
        ("cache_misses", Int r.b_cache_misses);
        ("wall_s", Float r.b_wall_s);
        ("jobs", List (List.map job r.b_results)) ])
