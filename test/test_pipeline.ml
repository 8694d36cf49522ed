(* Tests for the batch pipeline driver (lib/pipeline): the content-addressed
   cache round-trip, batch-vs-single-run agreement, per-job fault isolation
   (raise / timeout / retry), and the NaN-safety + total-order properties of
   the ranking layer the batch report depends on. *)

module R = Workloads.Registry
module S = Discovery.Suggestion

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "discopop-test-cache.%d.%d" (Unix.getpid ()) !n)
    in
    let rec rm_rf path =
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_DIR; _ } ->
          Array.iter
            (fun e -> rm_rf (Filename.concat path e))
            (Sys.readdir path);
          Unix.rmdir path
      | _ -> Sys.remove path
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    in
    rm_rf dir;
    dir

(* One attempt with no deadline and no stop request. *)
let run_unbounded job =
  Pipeline.run_job ~deadline:Float.infinity ~stop:(Atomic.make false) job

let dep_names (deps : Profiler.Dep.Set_.t) =
  Profiler.Dep.Set_.to_list deps
  |> List.map (fun (d, _) -> Profiler.Dep.to_string d)
  |> List.sort compare

(* Cache: store then load hits with identical content; a different config or
   program is a different key. *)
let cache_roundtrip () =
  let w = List.find (fun w -> w.R.name = "histogram") Workloads.Textbook.all in
  let prog = R.program w in
  let config = Pipeline.Cache.default_config in
  let profile = Profiler.Serial.profile prog in
  let report = S.analyze_profiled prog profile in
  let summary = S.summary_to_string ~name:w.R.name (S.summarize report) in
  let dir = fresh_dir () in
  let key = Pipeline.Cache.key config prog in
  Alcotest.(check (option string)) "empty dir misses" None
    (Option.map snd (Pipeline.Cache.load ~dir ~key));
  Pipeline.Cache.store ~dir ~key ~deps:profile.Profiler.Serial.deps ~summary ();
  (match Pipeline.Cache.load ~dir ~key with
  | None -> Alcotest.fail "stored entry must load"
  | Some (deps, loaded) ->
      Alcotest.(check string) "summary round-trips byte-for-byte" summary
        loaded;
      Alcotest.(check (list string))
        "dependences round-trip"
        (dep_names profile.Profiler.Serial.deps)
        (dep_names deps));
  let other =
    Pipeline.Cache.key
      { config with
        profile = { config.profile with skip = not config.profile.skip } }
      prog
  in
  Alcotest.(check bool) "config change changes the key" false (key = other);
  Alcotest.(check bool) "other config misses"
    true
    (Pipeline.Cache.load ~dir ~key:other = None);
  let other_prog = R.program ~size:(w.R.default_size + 7) w in
  Alcotest.(check bool) "program change changes the key" false
    (key = Pipeline.Cache.key config other_prog)

(* A cold batch over registry workloads must agree with direct single-run
   analysis, and a warm re-run must be all cache hits with byte-identical
   summaries. *)
let batch_matches_single_runs () =
  let names = [ "histogram"; "dotprod"; "jacobi" ] in
  let ws =
    List.map
      (fun n -> List.find (fun w -> w.R.name = n) Workloads.Textbook.all)
      names
  in
  let dir = fresh_dir () in
  let config = Pipeline.Cache.default_config in
  let jobs () =
    List.map (fun w -> Pipeline.workload_job ~cache_dir:dir ~config w) ws
  in
  let summaries (rep : Pipeline.report) =
    List.map
      (fun (r : Pipeline.job_result) ->
        match r.Pipeline.r_status with
        | Pipeline.Ok_ ok -> (r.Pipeline.r_name, snd ok.Pipeline.jr_entry)
        | _ -> Alcotest.fail (r.Pipeline.r_name ^ " did not succeed"))
      rep.Pipeline.b_results
  in
  let cold = Pipeline.run_batch ~jobs:2 (jobs ()) in
  Alcotest.(check int) "all ok" (List.length ws) cold.Pipeline.b_ok;
  Alcotest.(check int) "cold run misses" (List.length ws)
    cold.Pipeline.b_cache_misses;
  List.iter
    (fun w ->
      let direct =
        S.analyze (R.program w)
        |> S.summarize
        |> S.summary_to_string ~name:w.R.name
      in
      let batched = List.assoc w.R.name (summaries cold) in
      Alcotest.(check string)
        (w.R.name ^ ": batch = single run")
        direct batched)
    ws;
  let warm = Pipeline.run_batch ~jobs:2 (jobs ()) in
  Alcotest.(check int) "warm run all hits" (List.length ws)
    warm.Pipeline.b_cache_hits;
  Alcotest.(check int) "warm run no misses" 0 warm.Pipeline.b_cache_misses;
  Alcotest.(check bool) "warm summaries byte-identical" true
    (summaries cold = summaries warm)

(* Fault isolation: one healthy job, one that always raises, one that always
   times out. The batch must complete with a full report, the raiser retried
   once, and the others unaffected. *)
let fault_isolation () =
  let ok_result =
    { Pipeline.jr_suggestions = 0; jr_cache_hit = false; jr_entry = (Profiler.Dep.Set_.create (), "ok") }
  in
  let healthy =
    { Pipeline.j_name = "healthy"; j_run = (fun ~cancelled:_ -> ok_result) }
  in
  let raiser =
    { Pipeline.j_name = "raiser";
      j_run = (fun ~cancelled:_ -> failwith "injected fault") }
  in
  let sleeper =
    { Pipeline.j_name = "sleeper";
      j_run =
        (fun ~cancelled ->
          (* cooperative: poll the flag so the domain can be reaped *)
          while not (cancelled ()) do
            Unix.sleepf 0.002
          done;
          ok_result) }
  in
  let rep =
    Pipeline.run_batch ~jobs:3 ~timeout_s:0.2 ~retries:1
      [ healthy; raiser; sleeper ]
  in
  Alcotest.(check int) "three results" 3 (List.length rep.Pipeline.b_results);
  Alcotest.(check int) "one ok" 1 rep.Pipeline.b_ok;
  Alcotest.(check int) "one failed" 1 rep.Pipeline.b_failed;
  Alcotest.(check int) "one timeout" 1 rep.Pipeline.b_timeout;
  List.iter
    (fun (r : Pipeline.job_result) ->
      match (r.Pipeline.r_name, r.Pipeline.r_status) with
      | "healthy", Pipeline.Ok_ _ ->
          Alcotest.(check int) "healthy: one attempt" 1 r.Pipeline.r_attempts
      | "raiser", Pipeline.Failed msg ->
          Alcotest.(check int) "raiser: retried once" 2 r.Pipeline.r_attempts;
          Alcotest.(check bool) "raiser: message kept" true
            (Astring_contains.contains msg "injected fault")
      | "sleeper", Pipeline.Timed_out ->
          Alcotest.(check int) "sleeper: retried once" 2 r.Pipeline.r_attempts
      | name, _ -> Alcotest.fail (name ^ ": unexpected status"))
    rep.Pipeline.b_results

(* A timed-out attempt that ignores the cancel flag for a while still
   holds its worker: the retry starts only once it has returned, so with
   one worker at most one attempt is ever in flight. *)
let retry_waits_for_overrun () =
  let in_flight = Atomic.make 0 and most = Atomic.make 0 in
  let winder =
    { Pipeline.j_name = "winder";
      j_run =
        (fun ~cancelled ->
          let now_in = Atomic.fetch_and_add in_flight 1 + 1 in
          let rec raise_to m =
            let cur = Atomic.get most in
            if m > cur && not (Atomic.compare_and_set most cur m) then
              raise_to m
          in
          raise_to now_in;
          while not (cancelled ()) do
            Unix.sleepf 0.002
          done;
          (* wind down, ignoring the flag *)
          Unix.sleepf 0.1;
          Atomic.decr in_flight;
          { Pipeline.jr_suggestions = 0; jr_cache_hit = false;
            jr_entry = (Profiler.Dep.Set_.create (), "late") }) }
  in
  let rep =
    Pipeline.run_batch ~jobs:1 ~timeout_s:0.05 ~retries:1 [ winder ]
  in
  Alcotest.(check int) "at most one attempt in flight" 1 (Atomic.get most);
  match rep.Pipeline.b_results with
  | [ { Pipeline.r_status = Pipeline.Timed_out; r_attempts; _ } ] ->
      Alcotest.(check int) "winder: retried once" 2 r_attempts
  | _ -> Alcotest.fail "winder: expected one timed-out result"

(* Ranking safety net: every score the full registry produces is finite, and
   the suggestion order is the total order of [compare_rank]. *)
let ranking_is_finite_and_total () =
  let finite x = Float.is_finite x in
  List.iter
    (fun (w : R.t) ->
      let report = S.analyze (R.program w) in
      List.iter
        (fun (s : S.t) ->
          let sc = s.S.score in
          Alcotest.(check bool)
            (Printf.sprintf "%s: finite score" w.R.name)
            true
            (finite sc.Discovery.Ranking.coverage
            && finite sc.Discovery.Ranking.local_speedup
            && finite sc.Discovery.Ranking.imbalance
            && finite sc.Discovery.Ranking.combined))
        report.S.suggestions;
      let sorted = List.sort S.compare_rank report.S.suggestions in
      Alcotest.(check bool)
        (Printf.sprintf "%s: suggestions come out sorted" w.R.name)
        true
        (List.for_all2 (fun a b -> S.compare_rank a b = 0) report.S.suggestions
           sorted);
      (* antisymmetry + totality of the comparator over real suggestions *)
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let ab = S.compare_rank a b and ba = S.compare_rank b a in
              Alcotest.(check bool) "antisymmetric" true
                (compare ab 0 = compare 0 ba))
            report.S.suggestions)
        report.S.suggestions)
    Workloads.Catalog.all

let rank_key_nan () =
  let s =
    { Discovery.Ranking.coverage = 0.5; local_speedup = 2.0; imbalance = 0.0;
      combined = Float.nan }
  in
  Alcotest.(check bool) "NaN ranks last" true
    (Discovery.Ranking.rank_key s = Float.neg_infinity);
  let clamped =
    Discovery.Ranking.combine ~coverage:Float.nan ~local_speedup:Float.nan
      ~imbalance:Float.nan
  in
  Alcotest.(check bool) "combine never yields NaN" true
    (Float.is_finite clamped.Discovery.Ranking.combined)

let summary_roundtrip () =
  let w = List.find (fun w -> w.R.name = "histo_vis") Workloads.Textbook.all in
  let report = S.analyze (R.program w) in
  let entries = S.summarize report in
  Alcotest.(check bool) "non-empty summary" true (entries <> []);
  match S.summary_of_string (S.summary_to_string ~name:w.R.name entries) with
  | Error e -> Alcotest.fail ("summary_of_string: " ^ e)
  | Ok back ->
      Alcotest.(check bool) "summary text round-trips exactly" true
        (entries = back)

(* jr_entry must carry exactly what the cache tiers would serve: a cold run
   returns the freshly computed (deps, summary) pair, and a warm run the
   loaded one — byte- and cardinality-identical. This is what lets the serve
   daemon render a miss without re-reading the entry it just wrote. *)
let job_entry_matches_summary () =
  let w = List.find (fun w -> w.R.name = "histogram") Workloads.Textbook.all in
  let prog = R.program w in
  let mem = Pipeline.Mem_cache.create ~capacity:4 in
  let job =
    Pipeline.program_job ~mem ~name:"entry"
      ~config:Pipeline.Cache.default_config prog
  in
  let run () =
    match run_unbounded job with
    | Pipeline.Ok_ ok -> ok
    | _ -> Alcotest.fail "job failed"
  in
  let cold = run () in
  Alcotest.(check bool) "cold run is a miss" false cold.Pipeline.jr_cache_hit;
  let deps, summary = cold.Pipeline.jr_entry in
  let warm = run () in
  Alcotest.(check bool) "warm run hits" true warm.Pipeline.jr_cache_hit;
  let wdeps, wsummary = warm.Pipeline.jr_entry in
  Alcotest.(check string) "hit serves the same summary" summary wsummary;
  Alcotest.(check (list string)) "hit serves the same dependences"
    (dep_names deps) (dep_names wdeps)

(* The perfect shadow is exact with or without profiler workers. The program
   writes 120k cells, past the 100,000 slots a signature engine would get,
   then reads a second array: under a signature the reads alias the writes
   and invent RAW dependences. *)
let parallel_perfect_is_exact () =
  let n = 120_000 in
  let prog =
    let open Mil.Builder in
    number
      (program ~entry:"main" "wide" ~globals:[ garray "a" n; garray "b" n ]
         [ func "main"
             [ for_ "k" (i 0) (i n) [ seti "a" (v "k") (v "k") ];
               decl "s" (i 0);
               for_ "k" (i 0) (i n) [ set "s" (v "s" + "b".%[v "k"]) ];
               return (v "s") ] ])
  in
  let run workers =
    let config =
      { Pipeline.Cache.default_config with
        profile = { Profiler.Profile.default with shadow = Perfect; workers } }
    in
    match run_unbounded (Pipeline.program_job ~name:"wide" ~config prog) with
    | Pipeline.Ok_ ok -> ok
    | _ -> Alcotest.fail "job failed"
  in
  let serial = run 0 and par = run 2 in
  Alcotest.(check (list string)) "same dependences"
    (dep_names (fst serial.Pipeline.jr_entry))
    (dep_names (fst par.Pipeline.jr_entry));
  Alcotest.(check string) "same summary" (snd serial.Pipeline.jr_entry)
    (snd par.Pipeline.jr_entry)

(* The cache key is an on-disk format: entries written by an earlier build
   must keep hitting. These literals were recorded at format_version 3; a
   deliberate change to the key bumps the version and re-records them. *)
let cache_key_pinned () =
  let sig_config =
    { Pipeline.Cache.profile =
        { shadow = Signature 4096; skip = false; workers = 2 };
      threads = 8 }
  in
  Alcotest.(check string) "default config"
    "shadow=perfect skip=true workers=0 threads=4"
    (Pipeline.Cache.config_to_string Pipeline.Cache.default_config);
  Alcotest.(check string) "signature config"
    "shadow=signature:4096 skip=false workers=2 threads=8"
    (Pipeline.Cache.config_to_string sig_config);
  Alcotest.(check string) "key of fig27, default config"
    "8f7099bceb2204ba32193711660a2fc8"
    (Pipeline.Cache.key Pipeline.Cache.default_config Helpers.fig27);
  Alcotest.(check string) "key of fig27, signature config"
    "2b360009f104170acc63b9fac9cc687f"
    (Pipeline.Cache.key sig_config Helpers.fig27)

(* ---- cache eviction ---- *)

let dummy_deps = Profiler.Dep.Set_.create ()

(* A loadable summary: eviction must be judged on live entries, and load
   validates the summary, so the fixtures have to parse. Analyzed once. *)
let dummy_entries =
  lazy
    (let w =
       List.find (fun w -> w.R.name = "dotprod") Workloads.Textbook.all
     in
     S.analyze (R.program ~size:64 w) |> S.summarize)

let dummy_summary name = S.summary_to_string ~name (Lazy.force dummy_entries)

let entry_path dir key = Filename.concat dir (key ^ ".entry")
let entry_exists dir key = Sys.file_exists (entry_path dir key)
let entry_bytes dir key = (Unix.stat (entry_path dir key)).Unix.st_size

let set_age dir key age_s =
  let stamp = Unix.gettimeofday () -. age_s in
  Unix.utimes (entry_path dir key) stamp stamp

(* TTL sweep: expired entries go, fresh ones stay; no_limits never
   evicts. *)
let cache_ttl_eviction () =
  let dir = fresh_dir () in
  let store key =
    Pipeline.Cache.store ~dir ~key ~deps:dummy_deps
      ~summary:(dummy_summary key) ()
  in
  store "old1";
  store "old2";
  store "fresh";
  set_age dir "old1" 3600.0;
  set_age dir "old2" 3600.0;
  Alcotest.(check int) "no_limits is a no-op" 0
    (Pipeline.Cache.sweep ~dir Pipeline.Cache.no_limits);
  let n =
    Pipeline.Cache.sweep ~dir (Pipeline.Cache.limits ~ttl_s:60.0 ())
  in
  Alcotest.(check int) "two expired entries evicted" 2 n;
  Alcotest.(check bool) "old1 gone" false (entry_exists dir "old1");
  Alcotest.(check bool) "old2 gone" false (entry_exists dir "old2");
  Alcotest.(check bool) "fresh survives" true (entry_exists dir "fresh")

(* Size sweep: LRU-by-mtime order, oldest evicted first, stops as soon as
   the directory fits the budget. *)
let cache_size_eviction () =
  let dir = fresh_dir () in
  let store key =
    Pipeline.Cache.store ~dir ~key ~deps:dummy_deps
      ~summary:(dummy_summary key) ()
  in
  store "a";
  store "b";
  store "c";
  set_age dir "a" 300.0;
  set_age dir "b" 200.0;
  set_age dir "c" 100.0;
  let entry_bytes = entry_bytes dir "a" in
  (* budget fits two entries (entries are near-identical in size) *)
  let budget = (2 * entry_bytes) + (entry_bytes / 2) in
  let n =
    Pipeline.Cache.sweep ~dir
      { Pipeline.Cache.max_bytes = Some budget; ttl_s = None }
  in
  Alcotest.(check int) "one entry evicted" 1 n;
  Alcotest.(check bool) "oldest (a) evicted" false (entry_exists dir "a");
  Alcotest.(check bool) "b survives" true (entry_exists dir "b");
  Alcotest.(check bool) "c survives" true (entry_exists dir "c")

(* Reading an entry refreshes its recency: after a load, a size sweep must
   pick a different victim than it would have before the load. *)
let cache_load_touches () =
  let dir = fresh_dir () in
  let store key =
    Pipeline.Cache.store ~dir ~key ~deps:dummy_deps
      ~summary:(dummy_summary key) ()
  in
  store "stale";
  store "used";
  set_age dir "stale" 100.0;
  set_age dir "used" 200.0;
  (* "used" is older on disk, but a load promotes it to most recent *)
  Alcotest.(check bool) "load hits" true
    (Pipeline.Cache.load ~dir ~key:"used" <> None);
  let n =
    Pipeline.Cache.sweep ~dir { Pipeline.Cache.max_bytes = Some 1; ttl_s = None }
  in
  Alcotest.(check int) "evicts down to the budget" 2 n;
  (* with a budget fitting one entry, the read one must be the survivor *)
  let dir2 = fresh_dir () in
  let store2 key =
    Pipeline.Cache.store ~dir:dir2 ~key ~deps:dummy_deps
      ~summary:(dummy_summary key) ()
  in
  store2 "stale";
  store2 "used";
  set_age dir2 "stale" 100.0;
  set_age dir2 "used" 200.0;
  Alcotest.(check bool) "load hits" true
    (Pipeline.Cache.load ~dir:dir2 ~key:"used" <> None);
  let entry_bytes = entry_bytes dir2 "used" in
  ignore
    (Pipeline.Cache.sweep ~dir:dir2
       { Pipeline.Cache.max_bytes = Some (entry_bytes + (entry_bytes / 2));
         ttl_s = None });
  Alcotest.(check bool) "recently read entry survives" true
    (entry_exists dir2 "used");
  Alcotest.(check bool) "unread entry evicted" false (entry_exists dir2 "stale")

(* store with limits sweeps at publish but shields the key it just wrote,
   even when the budget is smaller than a single entry. *)
let cache_store_sweeps () =
  let dir = fresh_dir () in
  let limits = Pipeline.Cache.limits ~max_mb:0 () in
  (* max_mb = 0 -> budget 0 bytes: everything but the shielded key goes *)
  Pipeline.Cache.store ~dir ~key:"first" ~deps:dummy_deps
    ~summary:(dummy_summary "first") ();
  Pipeline.Cache.store ~limits ~dir ~key:"second" ~deps:dummy_deps
    ~summary:(dummy_summary "second") ();
  Alcotest.(check bool) "older entry swept at publish" false
    (entry_exists dir "first");
  Alcotest.(check bool) "just-published entry shielded" true
    (entry_exists dir "second");
  Alcotest.(check bool) "shielded entry still loads" true
    (Pipeline.Cache.load ~dir ~key:"second" <> None)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* One dependence record whose first witness is [domain], counted [count]
   times: two writers' entries for one key differ in these fields. *)
let one_dep ~domain ~count =
  let deps = Profiler.Dep.Set_.create () in
  Profiler.Dep.Set_.restore deps
    { Profiler.Dep.sink_line = 7; sink_thread = 0; dtype = Raw;
      src_line = 5; src_thread = 0; var = "x"; carrier = Some 3;
      racy = false }
    ~count
    (Some
       { Profiler.Dep.first_time = 11; first_index = 2;
         witness_domain = domain; risk = 0.0 });
  deps

(* An entry file cut at any byte — inside its header, at the header's end,
   inside the summary, at the summary/depfile seam, at a depfile line
   boundary or one byte short — loads as a miss, and the next store
   replaces it whole. So does a whole file whose depfile does not parse. *)
let cache_truncated_entry_misses () =
  let dir = fresh_dir () in
  let key = "cut" in
  let summary = dummy_summary key in
  let store () =
    Pipeline.Cache.store ~dir ~key ~deps:(one_dep ~domain:0 ~count:3)
      ~summary ()
  in
  store ();
  let full = read_file (entry_path dir key) in
  let header_end = String.index full '\n' + 1 in
  let depfile_at = header_end + String.length summary in
  let depfile_line_end = String.index_from full depfile_at '\n' + 1 in
  List.iter
    (fun cut ->
      write_file (entry_path dir key) (String.sub full 0 cut);
      Alcotest.(check bool)
        (Printf.sprintf "cut at %d of %d misses" cut (String.length full))
        true
        (Pipeline.Cache.load ~dir ~key = None);
      store ();
      Alcotest.(check string)
        (Printf.sprintf "store after the cut at %d rewrites the file" cut)
        full
        (read_file (entry_path dir key)))
    [ 0; 1; 9; header_end - 2; header_end - 1; header_end;
      header_end + (String.length summary / 2); depfile_at;
      depfile_line_end; String.length full - 1 ];
  Alcotest.(check bool) "the whole file loads" true
    (Pipeline.Cache.load ~dir ~key <> None);
  let garbage = "not a depfile\n" in
  write_file (entry_path dir key)
    (Printf.sprintf "discopop-entry v3 %d %d\n%s%s" (String.length summary)
       (String.length garbage) summary garbage);
  Alcotest.(check bool) "a whole file with a malformed depfile misses" true
    (Pipeline.Cache.load ~dir ~key = None)

(* A format-v2 entry (a <key>.deps/<key>.sugg pair) left in the directory
   is neither loaded nor counted by a sweep, nor removed by one. *)
let cache_ignores_v2_pairs () =
  let dir = fresh_dir () in
  let key = "old" in
  Pipeline.Cache.store ~dir ~key:"new" ~deps:dummy_deps
    ~summary:(dummy_summary "new") ();
  let deps_file = Filename.concat dir (key ^ ".deps")
  and sugg_file = Filename.concat dir (key ^ ".sugg") in
  write_file deps_file (Profiler.Depfile.render (one_dep ~domain:0 ~count:1));
  write_file sugg_file (dummy_summary key);
  set_age dir "new" 3600.0;
  List.iter (fun f -> Unix.utimes f 1.0 1.0) [ deps_file; sugg_file ];
  Alcotest.(check bool) "a v2 pair does not load" true
    (Pipeline.Cache.load ~dir ~key = None);
  Alcotest.(check int) "a TTL sweep counts only the v3 entry" 1
    (Pipeline.Cache.sweep ~dir (Pipeline.Cache.limits ~ttl_s:60.0 ()));
  Alcotest.(check int) "a byte-budget sweep finds nothing to evict" 0
    (Pipeline.Cache.sweep ~dir
       { Pipeline.Cache.max_bytes = Some 0; ttl_s = None });
  Alcotest.(check (list string)) "the v2 pair is left as it was"
    [ "old.deps"; "old.sugg" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* One cache directory shared by concurrent writers and readers: two
   domains store and load one shared key and a few keys of their own, each
   store sweeping to a 1-byte budget. Every
   load is a miss or one store's whole entry: the summary names the store,
   and the depfile, with its witness-domain field masked, is the one that
   store wrote. *)
let cache_shared_dir_never_torn () =
  let dir = fresh_dir () in
  let rounds = 200 in
  let limits = { Pipeline.Cache.max_bytes = Some 1; ttl_s = None } in
  let keys w =
    [ "shared"; Printf.sprintf "own%d.a" w; Printf.sprintf "own%d.b" w ]
  in
  let tag key w i = Printf.sprintf "%s-w%d-i%d" key w i in
  let mask depfile =
    String.split_on_char '\n' depfile
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | "D" :: _ as fields when List.length fields = 14 ->
               String.concat " "
                 (List.mapi (fun j f -> if j = 12 then "_" else f) fields)
           | _ -> line)
    |> String.concat "\n"
  in
  let entry key w i =
    (one_dep ~domain:w ~count:(i + 1), dummy_summary (tag key w i))
  in
  (* summary -> masked depfile of the store that wrote it *)
  let expected = Hashtbl.create 512 in
  for w = 0 to 1 do
    List.iter
      (fun key ->
        for i = 0 to rounds - 1 do
          let deps, summary = entry key w i in
          Hashtbl.replace expected summary
            (mask (Profiler.Depfile.render deps))
        done)
      (keys w)
  done;
  let worker w () =
    let hits = ref 0 and torn = ref [] in
    for i = 0 to rounds - 1 do
      List.iter
        (fun key ->
          let deps, summary = entry key w i in
          Pipeline.Cache.store ~limits ~dir ~key ~deps ~summary ();
          List.iter
            (fun k ->
              match Pipeline.Cache.load ~dir ~key:k with
              | None -> ()
              | Some (deps, summary) ->
                  incr hits;
                  if Hashtbl.find_opt expected summary
                     <> Some (mask (Profiler.Depfile.render deps))
                  then torn := k :: !torn)
            (keys 0 @ keys 1))
        (keys w)
    done;
    (!hits, !torn)
  in
  let d = Domain.spawn (worker 1) in
  let hits0, torn0 = worker 0 () in
  let hits1, torn1 = Domain.join d in
  Alcotest.(check (list string)) "no load mixes two stores" [] (torn0 @ torn1);
  Alcotest.(check bool) "some loads hit" true (hits0 + hits1 > 0);
  Array.iter
    (fun f ->
      Alcotest.(check string) ("only entry files remain: " ^ f) ".entry"
        (Filename.extension f))
    (Sys.readdir dir)

(* A cache entry that cannot be published (here a directory stands where
   its file would go) does not fail the job: the result is reported, the
   failure counted, and the temp file removed. *)
let unpublishable_entry_is_counted () =
  let w = List.find (fun w -> w.R.name = "histogram") Workloads.Textbook.all in
  let config = Pipeline.Cache.default_config in
  let dir = fresh_dir () in
  let key = Pipeline.Cache.key config (R.program w) in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir (key ^ ".entry")) 0o755;
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let failed () = Obs.counter_value "pipeline.cache.publish_failed" in
  let before = failed () in
  let rep =
    Pipeline.run_batch ~jobs:1
      [ Pipeline.workload_job ~cache_dir:dir ~config w ]
  in
  Alcotest.(check int) "the job is ok" 1 rep.Pipeline.b_ok;
  Alcotest.(check int) "the failed publish is counted" 1 (failed () - before);
  Alcotest.(check (list string)) "no temp file left" []
    (List.filter
       (fun f -> Filename.check_suffix f ".tmp")
       (Array.to_list (Sys.readdir dir)))

(* Cache hits and misses count once per job, from its final result: a
   first attempt that profiles and then fails, retried to success, is one
   miss. *)
let cache_miss_once_per_job () =
  let w = List.find (fun w -> w.R.name = "histogram") Workloads.Textbook.all in
  let inner =
    Pipeline.program_job ~name:"flaky" ~config:Pipeline.Cache.default_config
      (R.program w)
  in
  let attempts = ref 0 in
  let flaky =
    { inner with
      Pipeline.j_run =
        (fun ~cancelled ->
          incr attempts;
          let ok = inner.Pipeline.j_run ~cancelled in
          if !attempts = 1 then failwith "first attempt fails" else ok) }
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let values () =
    List.map Obs.counter_value
      [ "pipeline.jobs.cache_miss"; "pipeline.jobs.cache_hit" ]
  in
  let before = values () in
  let rep = Pipeline.run_batch ~jobs:1 ~retries:1 [ flaky ] in
  Alcotest.(check int) "the retry succeeds" 1 rep.Pipeline.b_ok;
  Alcotest.(check int) "one report miss" 1 rep.Pipeline.b_cache_misses;
  Alcotest.(check (list int)) "one miss, no hit" [ 1; 0 ]
    (List.map2 ( - ) (values ()) before)

let tests =
  [ Alcotest.test_case "cache round-trip + invalidation" `Quick cache_roundtrip;
    Alcotest.test_case "cache key pinned" `Quick cache_key_pinned;
    Alcotest.test_case "cache TTL eviction" `Quick cache_ttl_eviction;
    Alcotest.test_case "cache size eviction is LRU-by-mtime" `Quick
      cache_size_eviction;
    Alcotest.test_case "cache load refreshes recency" `Quick cache_load_touches;
    Alcotest.test_case "cache store sweeps, shielding its key" `Quick
      cache_store_sweeps;
    Alcotest.test_case "cache entry cut at any byte is a miss" `Quick
      cache_truncated_entry_misses;
    Alcotest.test_case "cache ignores format-v2 file pairs" `Quick
      cache_ignores_v2_pairs;
    Alcotest.test_case "cache shared by two domains is never torn" `Quick
      cache_shared_dir_never_torn;
    Alcotest.test_case "an unpublishable entry is counted, not failed" `Quick
      unpublishable_entry_is_counted;
    Alcotest.test_case "job entry mirrors the cache tiers" `Quick
      job_entry_matches_summary;
    Alcotest.test_case "parallel perfect profile is exact" `Quick
      parallel_perfect_is_exact;
    Alcotest.test_case "batch = single runs; warm = byte-identical hits" `Slow
      batch_matches_single_runs;
    Alcotest.test_case "fault isolation: raise / timeout / retry" `Quick
      fault_isolation;
    Alcotest.test_case "cache hits and misses count once per job" `Quick
      cache_miss_once_per_job;
    Alcotest.test_case "a retry waits for the overrunning attempt" `Quick
      retry_waits_for_overrun;
    Alcotest.test_case "ranking finite + total over full registry" `Slow
      ranking_is_finite_and_total;
    Alcotest.test_case "rank_key treats NaN as -inf" `Quick rank_key_nan;
    Alcotest.test_case "suggestion summary round-trip" `Quick summary_roundtrip
  ]
