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
let c_publish_failed = Obs.counter "pipeline.cache.publish_failed"

(* ---- content-addressed cache ---- *)

type entry = Profiler.Dep.Set_.t * string

module Cache = struct
  type config = { profile : Profiler.Profile.config; threads : int }

  let default_config = { profile = Profiler.Profile.default; threads = 4 }

  (* Bump when the cached representation changes shape (depfile format,
     summary format, entry framing, scoring semantics) or the profile
     behind it changes (v2: scope exits free locals in stack order, which
     moves instance counts and witnesses; v3: one [<key>.entry] file
     replaces the [.deps]/[.sugg] pair): old entries then miss instead of
     round-tripping stale bytes. *)
  let format_version = 3

  let config_to_string (c : config) =
    Printf.sprintf "%s threads=%d" (Profiler.Profile.to_string c.profile)
      c.threads

  let key (c : config) (prog : Mil.Ast.program) : string =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "discopop-cache v%d\n%s\n%s" format_version
            (config_to_string c)
            (Mil.Pretty.render_program prog)))

  let entry_path ~dir ~key = Filename.concat dir (key ^ ".entry")

  (* An entry file is one header line giving the byte lengths of the two
     parts that follow it, the summary then the v2 depfile:

       discopop-entry v3 <summary bytes> <depfile bytes>\n<summary><depfile>

     A file cut anywhere — inside the header, which then has no newline, or
     inside the body, which is then shorter than the header says — fails
     [decode] and reads as a miss. *)
  let encode ((deps, summary) : entry) =
    let depfile = Profiler.Depfile.render deps in
    Printf.sprintf "discopop-entry v%d %d %d\n%s%s" format_version
      (String.length summary) (String.length depfile) summary depfile

  let decode s : entry option =
    match
      Scanf.sscanf s "discopop-entry v%u %u %u\n%n" (fun v ns nd at ->
          (v, ns, nd, at))
    with
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
    | v, ns, nd, at
      when v = format_version && String.length s = at + ns + nd -> (
        let summary = String.sub s at ns in
        (* A summary that no longer parses is a miss too: the job re-runs
           and overwrites the entry. *)
        match
          ( Profiler.Depfile.parse (String.sub s (at + ns) nd),
            Suggestion.summary_of_string summary )
        with
        | deps, Ok _ -> Some (deps, summary)
        | _, Error _ -> None
        | exception
            (Profiler.Depfile.Parse_error _ | Failure _ | Invalid_argument _)
          ->
            None)
    | _ -> None

  type limits = { max_bytes : int option; ttl_s : float option }

  let no_limits = { max_bytes = None; ttl_s = None }

  let limits ?max_mb ?ttl_s () =
    { max_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_mb; ttl_s }

  (* One entry = one [<key>.entry] file: its size and mtime are the entry's.
     Files vanishing mid-scan (a concurrent sweep) are skipped, never an
     error; anything else in the directory is ignored. *)
  let entries dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
        Array.to_list files
        |> List.filter_map (fun f ->
               if Filename.extension f <> ".entry" then None
               else
                 match Unix.stat (Filename.concat dir f) with
                 | exception Unix.Unix_error _ -> None
                 | st ->
                     Some
                       ( Filename.remove_extension f,
                         (st.Unix.st_size, st.Unix.st_mtime) ))

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
        (try Sys.remove (entry_path ~dir ~key) with Sys_error _ -> ());
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

  let load ~dir ~key : entry option =
    let path = entry_path ~dir ~key in
    let hit = Option.bind (read_file path) decode in
    (* mtime doubles as the recency stamp: refreshing it on a hit makes LRU
       eviction spare entries that are actually being read *)
    if Option.is_some hit then (
      try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
    hit

  (* Atomic publish: write to a unique temp file in the cache directory,
     then rename over the final name. A reader opens either the old file
     or the new one, never a mix. Concurrent writers of one key may write
     different bytes (each depfile record names the domain that first saw
     it), and the last rename wins whole. A failed write or rename removes
     the temp file before re-raising: no sweep would. *)
  let write_atomic path contents =
    let dir = Filename.dirname path in
    let tmp =
      Filename.temp_file ~temp_dir:dir "discopop" ".tmp"
    in
    try
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc contents);
      Sys.rename tmp path
    with e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

  let rec mkdir_p dir =
    if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let store ?(limits = no_limits) ~dir ~key ~deps ~summary () =
    mkdir_p dir;
    write_atomic (entry_path ~dir ~key) (encode (deps, summary));
    (* publish-time sweep: the just-written entry is shielded, so a budget
       smaller than one entry still leaves the latest result readable *)
    ignore (sweep ~keep:key ~dir limits)
end

(* ---- in-process memory cache tier ---- *)

(* An LRU of recent pipeline results keyed by the same content hash as the
   disk cache, sitting in front of it. [discopop serve] answers repeat
   requests from here without touching the filesystem; the disk tier
   persists across processes. Entries are immutable after insertion, so a
   value handed out under the lock is safe to read from any domain. Hits
   and misses are counted by the caller ([serve.cache.*]). *)
module Mem_cache = struct
  type t = {
    mc_cap : int;
    mc_lock : Mutex.t;
    mc_tbl : (string, entry) Hashtbl.t;
    (* Most-recently-used first. Capacities are small (tens to hundreds),
       so the O(n) promote/evict list walk is noise next to a request. *)
    mutable mc_order : string list;
  }

  let create ~capacity =
    { mc_cap = max 0 capacity;
      mc_lock = Mutex.create ();
      mc_tbl = Hashtbl.create 64;
      mc_order = [] }

  let with_lock t f =
    Mutex.lock t.mc_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mc_lock) f

  let find t key =
    with_lock t @@ fun () ->
    let v = Hashtbl.find_opt t.mc_tbl key in
    if Option.is_some v then
      t.mc_order <- key :: List.filter (fun k -> k <> key) t.mc_order;
    v

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
end

type cache_tier = Mem | Disk

let lookup ?mem ?dir ~key () : (entry * cache_tier) option =
  match Option.bind mem (fun m -> Mem_cache.find m key) with
  | Some v -> Some (v, Mem)
  | None ->
      Option.bind dir (fun d -> Cache.load ~dir:d ~key)
      |> Option.map (fun v ->
             (* Promote disk hits so the next lookup is memory-resident. *)
             Option.iter (fun m -> Mem_cache.add m key v) mem;
             (v, Disk))

(* ---- jobs ---- *)

type job_ok = { jr_suggestions : int; jr_cache_hit : bool; jr_entry : entry }

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

let job_ok ~cache_hit entries entry =
  { jr_suggestions = List.length entries;
    jr_cache_hit = cache_hit;
    jr_entry = entry }

let uncached_job ?cache_dir ?(cache_limits = Cache.no_limits) ?mem ~name
    ~(config : Cache.config) ~key (prog : Mil.Ast.program) : job =
  let run ~cancelled =
    let profile = Profiler.Profile.run ~cancelled config.Cache.profile prog in
    let report =
      Suggestion.analyze_profiled ~threads:config.Cache.threads prog profile
    in
    let entries = Suggestion.summarize report in
    let summary = Suggestion.summary_to_string ~name entries in
    let deps = profile.Profiler.Serial.deps in
    (* A result that could not be published is still the job's result. *)
    Option.iter
      (fun dir ->
        try Cache.store ~limits:cache_limits ~dir ~key ~deps ~summary ()
        with Sys_error _ | Unix.Unix_error _ ->
          Obs.Counter.incr c_publish_failed)
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
    | Some (((_, summary) as entry), _tier) ->
        (* Every tier holds summaries that parse: load validates them. *)
        let entries = Suggestion.summary_of_string summary in
        job_ok ~cache_hit:true (Result.value entries ~default:[]) entry
    | None ->
        (uncached_job ?cache_dir ?cache_limits ?mem ~name ~config ~key prog)
          .j_run ~cancelled
  in
  { j_name = name; j_run = run }

let workload_job ?cache_dir ?cache_limits ~(config : Cache.config)
    (w : Workloads.Registry.t) : job =
  let name = w.Workloads.Registry.name in
  (* Build the program inside the job so a raising builder is isolated by
     the driver like any other job fault. *)
  { j_name = name;
    j_run =
      (fun ~cancelled ->
        let prog = Workloads.Registry.program w in
        (program_job ?cache_dir ?cache_limits ~name ~config prog).j_run
          ~cancelled) }

(* A job's final status, counted once on [pipeline.jobs.*] by both
   drivers; a succeeded job also counts its cache hit or miss, as the
   report's [b_cache_hits]/[b_cache_misses] do. *)
let count_status = function
  | Ok_ { jr_cache_hit; _ } ->
      Obs.Counter.incr c_ok;
      Obs.Counter.incr (if jr_cache_hit then c_cache_hit else c_cache_miss)
  | Failed _ -> Obs.Counter.incr c_failed
  | Timed_out -> Obs.Counter.incr c_timeout

(* The one timeout rule, for serve's requests and batch's attempts alike:
   the cancel poll fires once [stop] is set or the clock passes [deadline],
   and an attempt that raises {!Mil.Interp.Cancelled} or ends past
   [deadline], whatever it returned, is [Timed_out]. *)
let attempt ~deadline ~stop (j : job) : status =
  let cancelled () = Atomic.get stop || now () > deadline in
  let out =
    match j.j_run ~cancelled with
    | ok -> Ok_ ok
    | exception Mil.Interp.Cancelled -> Timed_out
    | exception e -> Failed (Printexc.to_string e)
  in
  if now () > deadline then Timed_out else out

let run_job ~deadline ~stop (j : job) : status =
  let st = attempt ~deadline ~stop j in
  count_status st;
  st

(* ---- the batch driver ---- *)

let run_batch ?(jobs = 4) ?(timeout_s = 120.0) ?(retries = 1)
    (js : job list) : report =
  Obs.Span.with_ ~phase:"pipeline.batch" @@ fun () ->
  let jobs_arr = Array.of_list js in
  let n = Array.length jobs_arr in
  let results : job_result option array = Array.make n None in
  let next = Atomic.make 0 in
  let never = Atomic.make false in
  let t0 = now () in
  (* A job's attempts run one after another on the same worker, so at most
     [jobs] attempts are ever in flight; a failed or timed-out attempt with
     retry budget left runs again at once. *)
  let rec run_attempts j n_attempt =
    let started = now () in
    let st =
      Obs.Trace.with_span ("job." ^ j.j_name) (fun () ->
          attempt ~deadline:(started +. timeout_s) ~stop:never j)
    in
    match st with
    | (Failed _ | Timed_out) when n_attempt <= retries ->
        Obs.Counter.incr c_retried;
        run_attempts j (n_attempt + 1)
    | _ ->
        count_status st;
        { r_name = j.j_name; r_status = st; r_attempts = n_attempt;
          r_wall_s = now () -. started }
  in
  let worker i () =
    Obs.Trace.set_track (Printf.sprintf "batch worker %d" i);
    let rec loop () =
      let idx = Atomic.fetch_and_add next 1 in
      if idx < n then begin
        results.(idx) <- Some (run_attempts jobs_arr.(idx) 1);
        loop ()
      end
    in
    loop ()
  in
  List.init (min (max 1 jobs) n) (fun i -> Domain.spawn (worker i))
  |> List.iter Domain.join;
  (* Every index was taken by exactly one worker. *)
  let results = Array.to_list (Array.map Option.get results) in
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
        | Ok_ ok ->
            (string_of_int (Profiler.Dep.Set_.cardinal (fst ok.jr_entry)),
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
      | Ok_ { jr_entry = deps, summary; jr_suggestions; jr_cache_hit } ->
          [ ("cached", Bool jr_cache_hit);
            ("deps", Int (Profiler.Dep.Set_.cardinal deps));
            ("suggestions", Int jr_suggestions);
            ("summary", String summary) ]
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
