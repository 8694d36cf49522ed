(* Tests for discopop serve: the in-process LRU cache tier (eviction order,
   the serve.cache.* counters, coherence with the disk tier across daemons
   sharing one directory), the HTTP daemon's
   status codes (200/400/404/405/429/504), admission control and the
   /metrics endpoint. Servers bind port 0, so tests never collide. *)

module P = Pipeline

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "discopop-test-serve.%d.%d" (Unix.getpid ()) !dir_seq)
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm_rf d;
  d

let entry tag = (Profiler.Dep.Set_.create (), "summary " ^ tag)

(* A small program with enough dynamic statements (~15k) that the
   cooperative-cancel poll (every ~2k) fires several times per run. *)
let small_src =
  "func main() {\n  var s = 0\n  for i = 0; i < 5000; i++ {\n    s += i\n  }\n\
  \  return s\n}\n"

let parse src =
  match Mil.Parse.program src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "test program does not parse: %s" msg

(* ---- memory LRU ---- *)

let resident m key = Option.is_some (P.Mem_cache.find m key)

let test_lru_eviction () =
  let m = P.Mem_cache.create ~capacity:2 in
  P.Mem_cache.add m "k1" (entry "1");
  P.Mem_cache.add m "k2" (entry "2");
  (* touch k1 so k2 becomes least-recently-used, then overflow *)
  ignore (P.Mem_cache.find m "k1");
  P.Mem_cache.add m "k3" (entry "3");
  Alcotest.(check bool) "LRU entry evicted" false (resident m "k2");
  Alcotest.(check bool) "recently-used entry survives" true (resident m "k1");
  Alcotest.(check bool) "new entry resident" true (resident m "k3");
  (* the finds above left k3 most recent and k1 least: k1 goes next *)
  P.Mem_cache.add m "k4" (entry "4");
  Alcotest.(check (list bool)) "MRU order decides the next victim"
    [ false; true; true ]
    (List.map (resident m) [ "k1"; "k3"; "k4" ]);
  (* re-adding a resident key replaces it without evicting another *)
  P.Mem_cache.add m "k4" (entry "4'");
  Alcotest.(check (option string)) "replaced in place" (Some "summary 4'")
    (Option.map snd (P.Mem_cache.find m "k4"));
  Alcotest.(check bool) "neighbour kept" true (resident m "k3")

let test_lru_capacity_zero () =
  let m = P.Mem_cache.create ~capacity:0 in
  P.Mem_cache.add m "k" (entry "k");
  Alcotest.(check bool) "every lookup misses" false (resident m "k")

(* ---- the daemon ---- *)

let with_server ?(jobs = 2) ?(queue = 8) ?(deadline = 30.0) ?cache_dir
    ?(mem = 8) ?(flight = 64) ?(slow_threshold = 0.25) f =
  let t =
    Serve.start
      { Serve.default_config with
        Serve.port = 0;
        jobs;
        queue_capacity = queue;
        deadline_s = deadline;
        cache_dir;
        mem_capacity = mem;
        profile = P.Cache.default_config;
        flight_capacity = flight;
        slow_threshold_s = slow_threshold }
  in
  Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f t)

let ok_response = function
  | Ok (r : Serve.Client.response) -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

let x_cache (r : Serve.Client.response) =
  Option.value ~default:"?" (List.assoc_opt "x-cache" r.Serve.Client.headers)

let post_small t =
  ok_response
    (Serve.Client.post ~port:(Serve.port t) ~body:small_src "/profile?name=t")

(* The cache outcomes a daemon reports, in one place: the
   serve.cache.{mem_hit,disk_hit,miss} counters. [f]'s deltas. *)
let cache_counter_deltas f =
  let values () =
    List.map
      (fun c -> Obs.Counter.value (Obs.counter ("serve.cache." ^ c)))
      [ "mem_hit"; "disk_hit"; "miss" ]
  in
  let before = values () in
  let x = f () in
  (x, List.map2 ( - ) (values ()) before)

let test_lru_counters () =
  let tiers, deltas =
    cache_counter_deltas @@ fun () ->
    with_server @@ fun t ->
    List.map (fun () -> x_cache (post_small t)) [ (); () ]
  in
  Alcotest.(check (list string)) "miss, then memory" [ "miss"; "mem" ] tiers;
  Alcotest.(check (list int)) "one mem_hit, no disk_hit, one miss"
    [ 1; 0; 1 ] deltas;
  let tiers, deltas =
    cache_counter_deltas @@ fun () ->
    with_server ~mem:0 @@ fun t ->
    List.map (fun () -> x_cache (post_small t)) [ (); () ]
  in
  Alcotest.(check (list string)) "no memory tier: two misses"
    [ "miss"; "miss" ] tiers;
  Alcotest.(check (list int)) "two misses counted" [ 0; 0; 2 ] deltas

(* The memory tier must stay coherent with the disk tier. A daemon computes
   an entry once and then answers from memory; a second daemon on the same
   directory answers from disk, promotes the entry and then answers from
   memory; with the entry file deleted, a third daemon recomputes it and
   republishes the file. *)
let test_tier_coherence () =
  let dir = fresh_dir () in
  let key = P.Cache.key P.Cache.default_config (parse small_src) in
  let path = Filename.concat dir (key ^ ".entry") in
  let daemon () =
    cache_counter_deltas @@ fun () ->
    with_server ~cache_dir:dir @@ fun t ->
    List.map (fun () -> (post_small t).Serve.Client.body) [ (); () ]
  in
  let bodies, deltas = daemon () in
  Alcotest.(check (list int)) "first daemon: miss, then memory" [ 1; 0; 1 ]
    deltas;
  Alcotest.(check bool) "entry published" true (Sys.file_exists path);
  let bodies', deltas = daemon () in
  Alcotest.(check (list int)) "second daemon: disk, then memory" [ 1; 1; 0 ]
    deltas;
  Alcotest.(check (list string)) "every tier answers the same bytes" bodies
    bodies';
  Sys.remove path;
  let _, deltas = daemon () in
  Alcotest.(check (list int)) "entry deleted: recomputed, then memory"
    [ 1; 0; 1 ] deltas;
  Alcotest.(check bool) "entry republished" true (Sys.file_exists path)

let test_http_health_and_routing () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let r = ok_response (Serve.Client.get ~port "/health") in
  Alcotest.(check int) "health 200" 200 r.Serve.Client.status;
  Alcotest.(check string) "health body" "ok\n" r.Serve.Client.body;
  let r = ok_response (Serve.Client.get ~port "/nope") in
  Alcotest.(check int) "unknown path 404" 404 r.Serve.Client.status;
  let r = ok_response (Serve.Client.get ~port "/profile") in
  Alcotest.(check int) "GET /profile 405" 405 r.Serve.Client.status

let test_http_profile_and_cache_tiers () =
  let dir = fresh_dir () in
  let r1, r2 =
    with_server ~cache_dir:dir @@ fun t ->
    let r1 = post_small t in
    (r1, post_small t)
  in
  Alcotest.(check int) "cold 200" 200 r1.Serve.Client.status;
  Alcotest.(check string) "cold misses" "miss" (x_cache r1);
  Alcotest.(check int) "warm 200" 200 r2.Serve.Client.status;
  Alcotest.(check string) "warm hits memory" "mem" (x_cache r2);
  Alcotest.(check string) "answers byte-identical" r1.Serve.Client.body
    r2.Serve.Client.body;
  (* a second daemon on the same directory starts with an empty memory
     tier: the disk entry must answer *)
  with_server ~cache_dir:dir @@ fun t ->
  let port = Serve.port t in
  let r3 = post_small t in
  Alcotest.(check string) "disk answers a new daemon" "disk" (x_cache r3);
  Alcotest.(check string) "disk answer byte-identical" r1.Serve.Client.body
    r3.Serve.Client.body;
  (* a parse failure is the client's fault *)
  let r =
    ok_response (Serve.Client.post ~port ~body:"not MIL at all" "/profile")
  in
  Alcotest.(check int) "parse error 400" 400 r.Serve.Client.status;
  let bad = Obs.counter "serve.requests.bad" in
  List.iter
    (fun (query, msg) ->
      let before = Obs.Counter.value bad in
      let r =
        ok_response (Serve.Client.post ~port ~body:small_src ("/profile?" ^ query))
      in
      Alcotest.(check int) ("bad parameter 400: " ^ query) 400
        r.Serve.Client.status;
      Alcotest.(check string) ("message: " ^ query) msg r.Serve.Client.body;
      Alcotest.(check int) ("counted bad: " ^ query) (before + 1)
        (Obs.Counter.value bad))
    [ ("shadow=bogus", "bad shadow: bogus\n");
      ("shadow=paged", "bad shadow: paged\n");
      ("shadow=signature:0", "bad signature slots: 0\n");
      ("shadow=signature:x", "bad signature slots: x\n");
      ("workers=-1", "workers must be >= 0\n");
      ("workers=9", "workers must be <= 8\n") ]

(* A cold request computes its key once and looks it up once: one
   serve.cache.miss and no tier hit, one uncached pipeline job. *)
let test_cold_request_looks_up_once () =
  let dir = fresh_dir () in
  with_server ~cache_dir:dir @@ fun t ->
  let counters =
    [ "serve.cache.miss"; "serve.cache.mem_hit"; "serve.cache.disk_hit";
      "pipeline.jobs.cache_miss"; "pipeline.jobs.cache_hit" ]
  in
  let values () =
    List.map (fun c -> Obs.Counter.value (Obs.counter c)) counters
  in
  let before = values () in
  let r =
    ok_response
      (Serve.Client.post ~port:(Serve.port t) ~body:small_src
         "/profile?name=once")
  in
  Alcotest.(check int) "cold 200" 200 r.Serve.Client.status;
  Alcotest.(check (list int)) "one miss, one uncached job, no hit"
    [ 1; 0; 0; 1; 0 ]
    (List.map2 ( - ) (values ()) before)

let test_http_deadline_504 () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let r =
    ok_response
      (Serve.Client.post ~port ~body:small_src
         "/profile?name=slow&deadline=0.000001")
  in
  Alcotest.(check int) "expired deadline 504" 504 r.Serve.Client.status

(* The deadline reaches the parallel profiler too: its interpreter polls
   the same cancel flag, and the workers are stopped on the way out. The
   program runs ~3M statements, far past one poll interval (~2k) and far
   longer than 50 ms. *)
let test_http_parallel_deadline_504 () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let src =
    "func main() {\n  var s = 0\n  for i = 0; i < 1000000; i++ {\n\
    \    s += i\n  }\n  return s\n}\n"
  in
  let r =
    ok_response
      (Serve.Client.post ~port ~body:src
         "/profile?name=slowpar&workers=1&deadline=0.05")
  in
  Alcotest.(check int) "parallel profile 504" 504 r.Serve.Client.status

let test_http_load_shed_429 () =
  with_server ~queue:0 @@ fun t ->
  let port = Serve.port t in
  let r =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile")
  in
  Alcotest.(check int) "full queue 429" 429 r.Serve.Client.status;
  Alcotest.(check (option string)) "Retry-After set" (Some "1")
    (List.assoc_opt "retry-after" r.Serve.Client.headers)

let test_http_metrics () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let _ =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile?name=m")
  in
  let r = ok_response (Serve.Client.get ~port "/metrics") in
  Alcotest.(check int) "metrics 200" 200 r.Serve.Client.status;
  match Obs.Json.of_string r.Serve.Client.body with
  | Error msg -> Alcotest.failf "metrics is not JSON: %s" msg
  | Ok json -> (
      match Obs.Json.member "counters" json with
      | None -> Alcotest.fail "no counters section"
      | Some counters ->
          let count name =
            Option.bind (Obs.Json.member name counters) Obs.Json.get_int
          in
          Alcotest.(check bool) "serve.requests.ok counted" true
            (match count "serve.requests.ok" with
            | Some n -> n >= 1
            | None -> false);
          Alcotest.(check bool) "serve.cache.miss counted" true
            (count "serve.cache.miss" <> None))

(* Every response must carry an X-Trace-Id that resolves through GET /trace
   to that request's span tree (the Chrome Trace JSON names the phases the
   daemon promises: queue wait, parse, cache lookup, profile, render). *)
let test_http_trace_roundtrip () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let r =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile?name=tr")
  in
  Alcotest.(check int) "profile 200" 200 r.Serve.Client.status;
  let tid =
    match List.assoc_opt "x-trace-id" r.Serve.Client.headers with
    | Some id -> id
    | None -> Alcotest.fail "no X-Trace-Id on the profile response"
  in
  let tr = ok_response (Serve.Client.get ~port ("/trace?id=" ^ tid)) in
  Alcotest.(check int) "trace 200" 200 tr.Serve.Client.status;
  (match Obs.Trace.check tr.Serve.Client.body with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "trace fails trace-check: %s" msg);
  (match Obs.Json.of_string tr.Serve.Client.body with
  | Error msg -> Alcotest.failf "trace is not JSON: %s" msg
  | Ok doc ->
      let names =
        match Obs.Json.member "traceEvents" doc with
        | Some (Obs.Json.List events) ->
            List.filter_map
              (fun e ->
                Option.bind (Obs.Json.member "name" e) Obs.Json.get_string)
              events
        | _ -> Alcotest.fail "trace has no traceEvents list"
      in
      List.iter
        (fun phase ->
          Alcotest.(check bool) (phase ^ " span present") true
            (List.mem phase names))
        [ "queue_wait"; "serve.parse"; "serve.cache_lookup"; "profile";
          "serve.render" ]);
  let r = ok_response (Serve.Client.get ~port "/trace?id=feedfacecafe01") in
  Alcotest.(check int) "unknown id 404" 404 r.Serve.Client.status;
  let r = ok_response (Serve.Client.get ~port "/trace") in
  Alcotest.(check int) "missing id 400" 400 r.Serve.Client.status

(* GET /requests lists the flight recorder; the same record is reachable
   in-process through Serve.flight, with route/status/tier filled in. *)
let test_http_requests_endpoint () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let r =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile?name=fr")
  in
  let tid =
    match List.assoc_opt "x-trace-id" r.Serve.Client.headers with
    | Some id -> id
    | None -> Alcotest.fail "no X-Trace-Id on the profile response"
  in
  let rr = ok_response (Serve.Client.get ~port "/requests") in
  Alcotest.(check int) "requests 200" 200 rr.Serve.Client.status;
  (match Obs.Json.of_string rr.Serve.Client.body with
  | Error msg -> Alcotest.failf "/requests is not JSON: %s" msg
  | Ok doc ->
      let recent =
        match Obs.Json.member "recent" doc with
        | Some (Obs.Json.List rs) -> rs
        | _ -> Alcotest.fail "/requests has no recent list"
      in
      let id_of r =
        Option.bind (Obs.Json.member "id" r) Obs.Json.get_string
      in
      Alcotest.(check bool) "profile request listed" true
        (List.exists (fun r -> id_of r = Some tid) recent));
  match Obs.Flight.find (Serve.flight t) tid with
  | None -> Alcotest.fail "trace id not in the flight recorder"
  | Some rec_ ->
      Alcotest.(check string) "route recorded" "POST /profile"
        rec_.Obs.Flight.fr_route;
      Alcotest.(check int) "status recorded" 200 rec_.Obs.Flight.fr_status;
      Alcotest.(check string) "cold request was a miss" "miss"
        rec_.Obs.Flight.fr_tier

(* A shed request never reaches a worker, but it still gets a trace id and
   a flight record (route "(shed)", no spans) — overload is observable. *)
let test_shed_flight_record () =
  with_server ~queue:0 @@ fun t ->
  let port = Serve.port t in
  let r =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile")
  in
  Alcotest.(check int) "shed 429" 429 r.Serve.Client.status;
  let tid =
    match List.assoc_opt "x-trace-id" r.Serve.Client.headers with
    | Some id -> id
    | None -> Alcotest.fail "shed response lacks X-Trace-Id"
  in
  match Obs.Flight.find (Serve.flight t) tid with
  | None -> Alcotest.fail "shed request not in the flight recorder"
  | Some rec_ ->
      Alcotest.(check string) "shed route" "(shed)" rec_.Obs.Flight.fr_route;
      Alcotest.(check int) "shed status" 429 rec_.Obs.Flight.fr_status;
      Alcotest.(check (list reject)) "shed record has no spans" []
        rec_.Obs.Flight.fr_spans

(* One cold POST /profile on a fresh one-worker daemon: its flight record
   and, with tracing on, the timeline export taken after it. *)
let served_profile ~trace =
  Obs.Trace.reset ();
  if trace then Obs.Trace.enable () else Obs.Trace.disable ();
  Fun.protect ~finally:Obs.Trace.disable @@ fun () ->
  with_server ~jobs:1 @@ fun t ->
  let r =
    ok_response
      (Serve.Client.post ~port:(Serve.port t) ~body:small_src
         "/profile?name=tl")
  in
  Alcotest.(check int) "profile 200" 200 r.Serve.Client.status;
  let tid =
    match List.assoc_opt "x-trace-id" r.Serve.Client.headers with
    | Some id -> id
    | None -> Alcotest.fail "no X-Trace-Id on the profile response"
  in
  (* the daemon closes a connection only after recording its request *)
  match Obs.Flight.find (Serve.flight t) tid with
  | None -> Alcotest.failf "no flight record for %s" tid
  | Some rec_ ->
      (rec_.Obs.Flight.fr_spans, Obs.Trace.event_count (), Obs.Trace.export ())

let tree spans =
  List.map (fun (e : Obs.Trace.span) -> (e.Obs.Trace.sp_name, e.sp_depth)) spans

(* A request's span tree is the slice of its domain's timeline: the same
   tree with tracing on and off; with tracing off the request leaves no
   events behind; with it on, the timeline export holds the request's
   spans and passes trace-check. *)
let test_request_tree_is_timeline_slice () =
  let off, off_events, _ = served_profile ~trace:false in
  Alcotest.(check int) "tracing off: no events left" 0 off_events;
  let on, _, doc = served_profile ~trace:true in
  Obs.Trace.reset ();
  Alcotest.(check (list (pair string int))) "same tree on and off" (tree off)
    (tree on);
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " in the tree") true
        (List.mem_assoc phase (tree on)))
    [ "queue_wait"; "serve.parse"; "serve.cache_lookup"; "profile";
      "serve.render" ];
  (match Obs.Trace.check (Obs.Json.to_string doc) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "timeline fails trace-check: %s" msg);
  let begins =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List evs) ->
        List.filter_map
          (fun e ->
            match
              ( Option.bind (Obs.Json.member "ph" e) Obs.Json.get_string,
                Option.bind (Obs.Json.member "name" e) Obs.Json.get_string )
            with
            | Some "B", name -> name
            | _ -> None)
          evs
    | _ -> Alcotest.fail "export has no traceEvents"
  in
  (* queue_wait is spliced into the record, not pushed on the timeline *)
  List.iter
    (fun (name, _) ->
      if name <> "queue_wait" then
        Alcotest.(check bool) (name ^ " on the timeline") true
          (List.mem name begins))
    (tree on)

(* Raw bytes on a socket, so malformed requests reach the parser. *)
let raw_request ~port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let test_malformed_requests_400 () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let answers what bytes status msg =
    let resp = raw_request ~port bytes in
    let rec body_at i =
      if i + 4 > String.length resp then
        Alcotest.failf "%s: no response head" what
      else if String.sub resp i 4 = "\r\n\r\n" then
        String.sub resp (i + 4) (String.length resp - i - 4)
      else body_at (i + 1)
    in
    let body = body_at 0 in
    Alcotest.(check string) (what ^ ": status") status (String.sub resp 9 3);
    Alcotest.(check string) (what ^ ": message") msg body
  in
  answers "one-word request line" "GARBAGE\r\n\r\n" "400"
    "malformed request line\n";
  answers "non-numeric length"
    "POST /profile HTTP/1.1\r\nContent-Length: abc\r\n\r\n" "400"
    "bad content-length\n";
  answers "length over max_body"
    "POST /profile HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n" "400"
    "bad content-length\n";
  answers "closed before body"
    "POST /profile HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc" "400"
    "connection closed before body\n";
  (* header names are case-insensitive and values trimmed: the whole body
     is read and the request routed *)
  answers "lowercase, padded length"
    "POST /nope HTTP/1.1\r\ncontent-LENGTH:  3 \r\n\r\nabc" "404"
    "not found\n"

(* The latency split: one POST /profile bumps serve.queue_wait,
   serve.service and the combined serve.latency by exactly one each, and a
   non-profile request bumps none (the registry is global, so deltas). *)
let test_split_latency_histograms () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let hq = Obs.histogram "serve.queue_wait" in
  let hs = Obs.histogram "serve.service" in
  let hl = Obs.histogram "serve.latency" in
  let q0 = Obs.Histogram.count hq in
  let s0 = Obs.Histogram.count hs in
  let l0 = Obs.Histogram.count hl in
  let _ =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile?name=h")
  in
  let _ = ok_response (Serve.Client.get ~port "/health") in
  Alcotest.(check int) "queue_wait observed once" (q0 + 1)
    (Obs.Histogram.count hq);
  Alcotest.(check int) "service observed once" (s0 + 1)
    (Obs.Histogram.count hs);
  Alcotest.(check int) "combined latency kept" (l0 + 1)
    (Obs.Histogram.count hl)

(* GET /metrics?format=prometheus answers the text exposition; a bogus
   format is the client's fault. *)
let test_http_metrics_prometheus () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let _ =
    ok_response (Serve.Client.post ~port ~body:small_src "/profile?name=p")
  in
  let r =
    ok_response (Serve.Client.get ~port "/metrics?format=prometheus")
  in
  Alcotest.(check int) "prometheus 200" 200 r.Serve.Client.status;
  Alcotest.(check (option string)) "prometheus content type"
    (Some "text/plain; version=0.0.4; charset=utf-8")
    (List.assoc_opt "content-type" r.Serve.Client.headers);
  let has_line prefix =
    String.split_on_char '\n' r.Serve.Client.body
    |> List.exists (fun l ->
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
  in
  Alcotest.(check bool) "ok counter exposed" true
    (has_line "serve_requests_ok_total ");
  Alcotest.(check bool) "queue_wait histogram exposed" true
    (has_line "serve_queue_wait_seconds_count ");
  Alcotest.(check bool) "service histogram exposed" true
    (has_line "serve_service_seconds_bucket{");
  let r = ok_response (Serve.Client.get ~port "/metrics?format=xml") in
  Alcotest.(check int) "unknown format 400" 400 r.Serve.Client.status

let test_http_shutdown () =
  with_server @@ fun t ->
  let port = Serve.port t in
  let r = ok_response (Serve.Client.post ~port ~body:"" "/shutdown") in
  Alcotest.(check int) "shutdown 200" 200 r.Serve.Client.status;
  (* the daemon flags itself down; Serve.stop in the finally joins it *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Serve.stopping t)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "daemon stopping" true (Serve.stopping t)

(* The daemon's default profile config passes the bound a request's query
   does, before anything binds: the port is held by a listener of our own,
   so a daemon that bound first would fail with EADDRINUSE instead. *)
let test_start_rejects_worker_bound () =
  let held = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close held) @@ fun () ->
  Unix.bind held (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen held 1;
  let port =
    match Unix.getsockname held with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let cfg =
    { Serve.default_config with
      Serve.port;
      profile =
        { P.Cache.default_config with
          profile = { Profiler.Profile.default with workers = 9 } } }
  in
  match Serve.start cfg with
  | t ->
      Serve.stop t;
      Alcotest.fail "workers = 9 started a daemon"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message" "workers must be <= 8" msg

let tests =
  [ Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "LRU hit/miss counters" `Quick test_lru_counters;
    Alcotest.test_case "LRU capacity 0" `Quick test_lru_capacity_zero;
    Alcotest.test_case "mem/disk tier coherence" `Quick test_tier_coherence;
    Alcotest.test_case "HTTP health + routing" `Quick
      test_http_health_and_routing;
    Alcotest.test_case "HTTP profile + cache tiers" `Quick
      test_http_profile_and_cache_tiers;
    Alcotest.test_case "cold request looks up once" `Quick
      test_cold_request_looks_up_once;
    Alcotest.test_case "HTTP deadline 504" `Quick test_http_deadline_504;
    Alcotest.test_case "HTTP parallel profile deadline 504" `Quick
      test_http_parallel_deadline_504;
    Alcotest.test_case "HTTP load shed 429" `Quick test_http_load_shed_429;
    Alcotest.test_case "HTTP metrics endpoint" `Quick test_http_metrics;
    Alcotest.test_case "HTTP trace id round-trip" `Quick
      test_http_trace_roundtrip;
    Alcotest.test_case "HTTP requests endpoint" `Quick
      test_http_requests_endpoint;
    Alcotest.test_case "shed requests hit the flight recorder" `Quick
      test_shed_flight_record;
    Alcotest.test_case "queue-wait/service latency split" `Quick
      test_split_latency_histograms;
    Alcotest.test_case "HTTP prometheus exposition" `Quick
      test_http_metrics_prometheus;
    Alcotest.test_case "request span tree is a timeline slice" `Quick
      test_request_tree_is_timeline_slice;
    Alcotest.test_case "malformed requests answer 400" `Quick
      test_malformed_requests_400;
    Alcotest.test_case "HTTP shutdown" `Quick test_http_shutdown;
    Alcotest.test_case "start bounds the default workers" `Quick
      test_start_rejects_worker_bound ]
