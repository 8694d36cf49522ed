(* Hot-path economics of the dependence profiler — the substrate of
   Fig. 2.9/2.12. Per sampled workload:

   - engine events/sec over a pre-recorded access stream (interpreter cost
     excluded, so this isolates Algorithm 2 + shadow-memory throughput), and
     the same for the happens-before detector
     ([Profiler.Happens_before]) that validation feeds;
   - GC minor words allocated per access during that feed (the per-access
     metadata cost that §2.3's cheap shadow lookups and dependence merging
     exist to suppress);
   - the parallel profiler's producer: minor words per access on the
     calling domain, which runs the interpreter and packs the chunks;
   - the event producer alone: interpreted statements/sec, instrumented
     with sinks that drop every event, and uninstrumented (native);
   - the two-thread producer: the workload's first transform in two
     chunks, interpreted with [scramble_unlocked] into no-op sinks
     (statements/sec), and validation's race run of it, unscrambled into
     the happens-before detector ([Profiler.Happens_before.run],
     accesses/sec), seeded and without preemption (the one run validation
     makes for a schedule-determinate transform);
   - the whole serial profiler (interpreter, engine and PET): accesses/sec;
   - the end-to-end serial slowdown factor (profiled / native wall time);
   - the call path's allocation: minor words per call of fib@15,
     uninstrumented and instrumented, measured whatever the sample.

   Each metric is published as a [hotpath.*] gauge so BENCH_hotpath.json
   carries the perf baseline that CI regresses against (see
   bench/baseline_hotpath.json and `discopop check-bench`). *)

module R = Workloads.Registry

(* Small fixed sample: textbook + BOTS + the DOACROSS-shaped gauss_seidel,
   at sizes that keep the whole experiment CI-friendly (a few seconds).
   HOTPATH_WORKLOADS=name,name,... restricts the sweep (CI's perf-smoke
   runs two); unknown names are reported, not silently dropped. *)
let sample_default =
  [ ("histogram", 4000); ("matmul", 24); ("prefix_sum", 4000);
    ("gauss_seidel", 300); ("fib", 15) ]

let sample () =
  Util.env_list "HOTPATH_WORKLOADS" ~default:(List.map fst sample_default)
    ~find:(fun name ->
      Workloads.Catalog.find name
      |> Option.map (fun (w : Workloads.Registry.t) ->
             let size = List.assoc_opt name sample_default in
             (w, Option.value size ~default:w.default_size)))
    ~unknown:(Printf.sprintf "  (hotpath: unknown workload %s, skipped)")

(* Best-of-5 timed feeds (after one warm-up) plus one allocation-metered
   feed: minor words are deterministic, so one measurement suffices. The
   minimum is the least-noise estimator for a short CI microbenchmark —
   anything above it is scheduler/cache interference, not engine cost.
   Each feed gets a fresh engine, created *outside* the timed/metered
   region — the metric is event-processing throughput, not shadow-store
   setup (the off-heap signature store is a multi-MB allocation whose cost
   would otherwise dominate short CI streams). *)
let measure_feed create feed (lstacks, stream) =
  let replay t =
    Trace.Chunk.iter stream ~access:(feed t) ~remove:ignore
  in
  replay (create lstacks);
  let time () =
    let t = create lstacks in
    let t0 = Unix.gettimeofday () in
    replay t;
    Unix.gettimeofday () -. t0
  in
  let t = ref (time ()) in
  for _ = 2 to 5 do
    let dt = time () in
    if dt < !t then t := dt
  done;
  let t = !t in
  let fresh = create lstacks in
  let w0 = Gc.minor_words () in
  replay fresh;
  let dw = Gc.minor_words () -. w0 in
  let n = float_of_int (Trace.Chunk.length stream) in
  (n /. t, dw /. n)

let measure_engine shadow =
  measure_feed
    (fun lstacks -> Profiler.Engine.create ~lstacks shadow)
    Profiler.Engine.feed_fields

let measure_hb =
  measure_feed
    (fun _ -> Profiler.Happens_before.create ())
    Profiler.Happens_before.feed_fields

(* Minor words per access the parallel profiler allocates on the calling
   domain, after one warm-up run. *)
let measure_parallel_producer prog =
  let go () = Profiler.Parallel.profile ~workers:1 ~perfect:true prog in
  ignore (go ());
  let w0 = Gc.minor_words () in
  let r = go () in
  (Gc.minor_words () -. w0) /. float_of_int r.accesses

(* [count] of a warm-up run of [go], per second of the fastest of 5 more. *)
let best_rate go count =
  let n = count (go ()) in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (go ());
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  float_of_int n /. !best

(* Executed statements per second, instrumented (into the default sinks,
   which drop every event) or not. *)
let measure_interp ~instrument prog =
  best_rate
    (fun () -> Mil.Interp.run ~instrument prog)
    (fun r -> r.Mil.Interp.r_stats.statements)

(* The workload's best transformable suggestion after a 2-thread analysis,
   applied in 2 chunks: the program [Transform.Validate]'s race run
   interprets. *)
let two_chunk_transform prog =
  match
    Transform.Parallelize.apply_first ~chunks:2
      (Discovery.Suggestion.analyze ~threads:2 prog)
  with
  | Ok (t, _) -> Some t.Transform.Parallelize.transformed
  | Error _ -> None

(* Executed statements per second of a scrambled run into no-op sinks. *)
let measure_scrambled prog =
  best_rate
    (fun () -> Mil.Interp.run ~scramble_unlocked:true prog)
    (fun r -> r.Mil.Interp.r_stats.statements)

(* Accesses per second of a validation race run. *)
let measure_hb_run ?preempt prog =
  best_rate
    (fun () -> snd (Profiler.Happens_before.run ?preempt prog))
    (fun r -> r.Mil.Interp.r_stats.reads + r.r_stats.writes)

(* Accesses per second of the whole serial profiler — interpreter, engine
   and PET together — perfect shadow with skip on. *)
let measure_serial prog =
  best_rate
    (fun () ->
      Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect ~skip:true prog)
    (fun r -> r.Profiler.Serial.accesses)

(* Minor words per call of one run of fib@15 after a warm-up run: fib is
   nearly all calls, so this meters what a call allocates. *)
let measure_call_words ~instrument =
  let prog = R.program ~size:15 (Option.get (Workloads.Catalog.find "fib")) in
  ignore (Mil.Interp.run ~instrument prog);
  let w0 = Gc.minor_words () in
  let r = Mil.Interp.run ~instrument prog in
  (Gc.minor_words () -. w0) /. float_of_int r.Mil.Interp.r_stats.calls

let run () =
  Util.header
    "Hot path: engine events/sec, minor words/access, interpreter\n\
    \ statements/sec, serial slowdown";
  let g name v = Obs.Gauge.set (Obs.gauge name) v in
  let rows =
    List.map
      (fun ((w : R.t), size) ->
        let prog = R.program ~size w in
        let stream = Util.record_stream prog in
        let n = Trace.Chunk.length (snd stream) in
        let sig_eps, sig_wpa =
          measure_engine (Profiler.Engine.Signature 65_536) stream
        in
        let perf_eps, perf_wpa = measure_engine Profiler.Engine.Perfect stream in
        let hb_eps, hb_wpa = measure_hb stream in
        let par_wpa = measure_parallel_producer prog in
        let interp_sps = measure_interp ~instrument:true prog in
        let native_sps = measure_interp ~instrument:false prog in
        let serial_aps = measure_serial prog in
        let scrambled =
          Option.map
            (fun t ->
              ( measure_scrambled t,
                measure_hb_run t,
                measure_hb_run ~preempt:false t ))
            (two_chunk_transform prog)
        in
        let t_native = Util.native_time prog in
        let t_serial =
          Util.med_time (fun () ->
              Profiler.Serial.profile
                ~shadow:(Profiler.Engine.Signature 100_000) prog)
        in
        let slowdown = t_serial /. t_native in
        g (Printf.sprintf "hotpath.%s.sig.events_per_sec" w.name) sig_eps;
        g (Printf.sprintf "hotpath.%s.sig.minor_words_per_access" w.name) sig_wpa;
        g (Printf.sprintf "hotpath.%s.perfect.events_per_sec" w.name) perf_eps;
        g (Printf.sprintf "hotpath.%s.perfect.minor_words_per_access" w.name)
          perf_wpa;
        g (Printf.sprintf "hotpath.%s.hb.events_per_sec" w.name) hb_eps;
        g (Printf.sprintf "hotpath.%s.hb.minor_words_per_access" w.name) hb_wpa;
        g (Printf.sprintf "hotpath.%s.parallel.minor_words_per_access" w.name)
          par_wpa;
        g (Printf.sprintf "hotpath.%s.interp.stmts_per_sec" w.name) interp_sps;
        g (Printf.sprintf "hotpath.%s.interp.native_stmts_per_sec" w.name)
          native_sps;
        g (Printf.sprintf "hotpath.%s.serial.accesses_per_sec" w.name)
          serial_aps;
        Option.iter
          (fun (sps, aps, coop_aps) ->
            g (Printf.sprintf "hotpath.%s.interp.scrambled_stmts_per_sec" w.name)
              sps;
            g (Printf.sprintf "hotpath.%s.hb_run.accesses_per_sec" w.name) aps;
            g (Printf.sprintf "hotpath.%s.hb_coop.accesses_per_sec" w.name)
              coop_aps)
          scrambled;
        g (Printf.sprintf "hotpath.%s.slowdown_serial" w.name) slowdown;
        Obs.Counter.add
          (Obs.counter (Printf.sprintf "hotpath.%s.accesses" w.name))
          n;
        let scrambled_cell f =
          match scrambled with
          | Some r -> Printf.sprintf "%.2e" (f r)
          | None -> "-"
        in
        [ w.name; string_of_int n;
          Printf.sprintf "%.2e" sig_eps; Printf.sprintf "%.1f" sig_wpa;
          Printf.sprintf "%.2e" perf_eps; Printf.sprintf "%.1f" perf_wpa;
          Printf.sprintf "%.2e" hb_eps; Printf.sprintf "%.1f" hb_wpa;
          Printf.sprintf "%.1f" par_wpa;
          Printf.sprintf "%.2e" interp_sps; Printf.sprintf "%.2e" native_sps;
          scrambled_cell (fun (s, _, _) -> s);
          scrambled_cell (fun (_, a, _) -> a);
          scrambled_cell (fun (_, _, c) -> c);
          Printf.sprintf "%.2e" serial_aps; Printf.sprintf "%.0f" slowdown ])
      (sample ())
  in
  Util.table
    ~columns:
      [ "program"; "accesses"; "sig ev/s"; "sig w/acc"; "perf ev/s";
        "perf w/acc"; "hb ev/s"; "hb w/acc"; "par w/acc"; "interp st/s";
        "native st/s"; "scram st/s"; "hb run acc/s"; "hb coop acc/s";
        "serial acc/s";
        "slowdown" ]
    rows;
  print_endline
    "(events/sec: engine (hb: happens-before detector) alone over a\n\
    \ pre-recorded stream; w/acc: GC minor words allocated per access, par:\n\
    \ the parallel profiler's producer;\n\
    \ st/s: interpreted statements/sec,\n\
    \ instrumented into no-op sinks and native; scram st/s: the same for the\n\
    \ 2-chunk transform, scrambled; hb run acc/s: Happens_before.run on it,\n\
    \ unscrambled (-: no transform); hb coop acc/s: the same with\n\
    \ ~preempt:false; serial acc/s: the whole serial\n\
    \ profiler, perfect + skip;\n\
    \ slowdown: serial profiled vs native)";
  let native = measure_call_words ~instrument:false in
  let instrumented = measure_call_words ~instrument:true in
  g "hotpath.fib.call.native_minor_words_per_call" native;
  g "hotpath.fib.call.minor_words_per_call" instrumented;
  Printf.printf
    "call path, fib@15: %.1f minor words per call native, %.1f instrumented\n"
    native instrumented
