(* The service commands: the concurrent batch driver and the resident
   profiling daemon, which share the on-disk result cache. *)

open Cmdliner
open Terms

let jobs ~doc =
  Arg.(value & opt positive 4 & info [ "jobs" ] ~docv:"N" ~doc)

let batch_cmd =
  let doc =
    "Run the full profile/CU/discovery/ranking pipeline over many workloads \
     concurrently on --jobs worker domains, with an optional \
     content-addressed on-disk result cache (--cache DIR): a workload whose \
     program and profiler configuration are unchanged skips phase 1 \
     entirely on re-runs. A job that raises or exceeds --timeout is \
     reported as failed/timed-out without killing the batch (one retry by \
     default, run next on the same worker); any failed or timed-out job \
     makes the exit status non-zero after the full report is emitted. An \
     overrunning attempt is cancelled cooperatively and holds its worker \
     until it returns, so at most --jobs attempts are ever in flight."
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD"
           ~doc:"Workloads to run (default: every registry workload, or the \
                 $(b,--suite) selection).")
  in
  let suite_arg =
    Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"NAME"
           ~doc:"Run every workload of one suite (textbook, nas, starbench, \
                 bots, apps, splash2x, numerics, parsec).")
  in
  let timeout_arg =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Per-attempt wall-clock budget; an attempt that overruns \
                 it is cancelled and reported as timed-out.")
  in
  let retries_arg =
    Arg.(value & opt non_negative 1 & info [ "retries" ] ~docv:"K"
           ~doc:"Extra attempts per failed or timed-out job.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT"
           ~doc:"Write the machine-readable batch report to OUT ($(b,-) = \
                 stdout). The human-readable table then goes to stderr, so \
                 OUT is pure JSON.")
  in
  let run names suite jobs (cache_dir, cache_limits) timeout retries json
      profile threads obs: unit =
    let ws =
      match (names, suite) with
      | [], None -> Workloads.Catalog.all
      | [], Some s ->
          List.filter
            (fun (w : Workloads.Registry.t) -> w.suite = s)
            Workloads.Catalog.all
      | names, _ -> List.map find_workload names
    in
    if ws = [] then
      or_die
        (Error
           (match suite with
           | Some s -> Printf.sprintf "no workloads in suite %s" s
           | None -> "no workloads selected"));
    exit
    @@ with_obs obs
    @@ fun () ->
    let config = { Pipeline.Cache.profile; threads } in
    let rep =
      Pipeline.run_batch ~jobs ~timeout_s:timeout ~retries
        (List.map (Pipeline.workload_job ?cache_dir ~cache_limits ~config) ws)
    in
    (* With --json, the human table moves to stderr so stdout stays
       machine-parseable (notably `--json -`, which streams the JSON report
       itself to stdout). *)
    (match json with
    | None -> print_string (Pipeline.render rep)
    | Some path -> (
        prerr_string (Pipeline.render rep);
        let report = Pipeline.report_to_json ?suite rep in
        match path with
        | "-" -> print_endline (Obs.Json.pretty report)
        | path -> write_json path report));
    if rep.b_failed + rep.b_timeout > 0 then 1 else 0
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ names_arg $ suite_arg
      $ jobs ~doc:"Worker domains, each running one job's attempts at a time."
      $ cache $ timeout_arg
      $ retries_arg $ json_arg $ profile_config
      $ threads
          ~doc:"Thread count assumed by the local-speedup metric (part of \
                the cache key)."
      $ obs)

let serve_cmd =
  let doc =
    "Run the resident profiling daemon: a hand-rolled HTTP/1.1 server that \
     accepts MIL programs over POST /profile, profiles them on a pool of \
     persistent worker domains, and answers repeat requests from an \
     in-process LRU in front of the on-disk cache (--cache DIR). \
     Every response carries an X-Trace-Id; GET /trace?id= replays one \
     request's span tree as Chrome Trace JSON from the flight recorder \
     (--flight N records, slow requests retained past --slow-threshold), \
     dumped via GET /requests and --flight-dump FILE. GET /metrics dumps \
     the observability registry as JSON (?format=prometheus for the \
     Prometheus text format); a full queue answers 429 with Retry-After; \
     a request overrunning --deadline is cancelled cooperatively and \
     answers 504. Stop with POST /shutdown, SIGINT or SIGTERM."
  in
  let port_arg =
    Arg.(value & opt int 8123 & info [ "port" ] ~docv:"P"
           ~doc:"TCP port to listen on (127.0.0.1 only; 0 = ephemeral).")
  in
  let queue_arg =
    Arg.(value & opt non_negative 32 & info [ "queue" ] ~docv:"N"
           ~doc:"Pending connections admitted before load-shedding with 429.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Per-request processing deadline; an overrunning profile is \
                 cancelled and answered 504.")
  in
  let mem_arg =
    Arg.(value & opt non_negative 128 & info [ "mem-cache" ] ~docv:"N"
           ~doc:"In-process LRU capacity in entries (0 disables the memory \
                 tier).")
  in
  let flight_arg =
    Arg.(value & opt positive 512 & info [ "flight" ] ~docv:"N"
           ~doc:"Flight-recorder window: completed request records retained \
                 for GET /trace and GET /requests.")
  in
  let slow_arg =
    Arg.(value & opt float 0.25 & info [ "slow-threshold" ] ~docv:"SEC"
           ~doc:"Service time above which a request is also retained in the \
                 slow-request ring (which fast traffic cannot evict).")
  in
  let flight_dump_arg =
    Arg.(value & opt (some string) None & info [ "flight-dump" ] ~docv:"FILE"
           ~doc:"Write both flight-recorder rings as JSON to $(docv) on \
                 shutdown.")
  in
  let run port jobs queue deadline (cache_dir, cache_limits) mem profile
      threads flight slow_threshold flight_dump =
    (* Serve rejects a default profile config it would answer 400 to. *)
    try
      Serve.run
        { Serve.default_config with
          port; jobs; queue_capacity = queue; deadline_s = deadline;
          cache_dir; cache_limits; mem_capacity = mem;
          profile = { profile; threads };
          flight_capacity = flight; slow_threshold_s = slow_threshold;
          flight_dump }
    with Invalid_argument msg -> or_die (Error msg)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ port_arg
      $ jobs ~doc:"Worker domains handling requests concurrently."
      $ queue_arg $ deadline_arg $ cache
      $ mem_arg $ profile_config
      $ threads
          ~doc:"Default thread count assumed by the local-speedup metric \
                (overridable per request with ?threads=)."
      $ flight_arg $ slow_arg $ flight_dump_arg)

let cmds = [ batch_cmd; serve_cmd ]
