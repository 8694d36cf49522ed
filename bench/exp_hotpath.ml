(* Hot-path economics of the dependence profiler — the substrate of
   Fig. 2.9/2.12. Per sampled workload:

   - engine events/sec over a pre-recorded access stream (interpreter cost
     excluded, so this isolates Algorithm 2 + shadow-memory throughput);
   - GC minor words allocated per access during that feed (the per-access
     metadata cost that §2.3's cheap shadow lookups and dependence merging
     exist to suppress);
   - the parallel profiler's producer: minor words per access on the
     calling domain, which runs the interpreter and packs the chunks;
   - the event producer alone: interpreted statements/sec, instrumented
     with sinks that drop every event, and uninstrumented (native);
   - the whole serial profiler (interpreter, engine and PET): accesses/sec;
   - the end-to-end serial slowdown factor (profiled / native wall time).

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

let find_workload name =
  List.find_opt (fun (w : R.t) -> w.name = name)
    (Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Bots.all
   @ Workloads.Numerics.all)

let sample () =
  let wanted =
    match Sys.getenv_opt "HOTPATH_WORKLOADS" with
    | None | Some "" -> List.map fst sample_default
    | Some s -> String.split_on_char ',' s |> List.map String.trim
  in
  List.filter_map
    (fun name ->
      match find_workload name with
      | None ->
          Printf.printf "  (hotpath: unknown workload %s, skipped)\n" name;
          None
      | Some w ->
          let size =
            match List.assoc_opt name sample_default with
            | Some s -> s
            | None -> w.default_size
          in
          Some (w, size))
    wanted

(* Best-of-5 timed feeds (after one warm-up) plus one allocation-metered
   feed: minor words are deterministic, so one measurement suffices. The
   minimum is the least-noise estimator for a short CI microbenchmark —
   anything above it is scheduler/cache interference, not engine cost.
   Each feed gets a fresh engine, created *outside* the timed/metered
   region — the metric is event-processing throughput, not shadow-store
   setup (the off-heap signature store is a multi-MB allocation whose cost
   would otherwise dominate short CI streams). *)
let measure_engine shadow (lstacks, stream) =
  Util.replay (Profiler.Engine.create ~lstacks shadow) stream;
  let time () =
    let engine = Profiler.Engine.create ~lstacks shadow in
    let t0 = Unix.gettimeofday () in
    Util.replay engine stream;
    Unix.gettimeofday () -. t0
  in
  let t = ref (time ()) in
  for _ = 2 to 5 do
    let dt = time () in
    if dt < !t then t := dt
  done;
  let t = !t in
  let engine = Profiler.Engine.create ~lstacks shadow in
  let w0 = Gc.minor_words () in
  Util.replay engine stream;
  let dw = Gc.minor_words () -. w0 in
  let n = float_of_int (Trace.Chunk.length stream) in
  (n /. t, dw /. n)

(* Minor words per access the parallel profiler allocates on the calling
   domain, after one warm-up run. *)
let measure_parallel_producer prog =
  let go () = Profiler.Parallel.profile ~workers:1 ~perfect:true prog in
  ignore (go ());
  let w0 = Gc.minor_words () in
  let r = go () in
  (Gc.minor_words () -. w0) /. float_of_int r.Profiler.Parallel.accesses

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

(* Accesses per second of the whole serial profiler — interpreter, engine
   and PET together — perfect shadow with skip on. *)
let measure_serial prog =
  best_rate
    (fun () ->
      Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect ~skip:true prog)
    (fun r -> r.Profiler.Serial.accesses)

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
        let paged_eps, paged_wpa = measure_engine Profiler.Engine.Paged stream in
        let par_wpa = measure_parallel_producer prog in
        let interp_sps = measure_interp ~instrument:true prog in
        let native_sps = measure_interp ~instrument:false prog in
        let serial_aps = measure_serial prog in
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
        g (Printf.sprintf "hotpath.%s.paged.events_per_sec" w.name) paged_eps;
        g (Printf.sprintf "hotpath.%s.paged.minor_words_per_access" w.name)
          paged_wpa;
        g (Printf.sprintf "hotpath.%s.parallel.minor_words_per_access" w.name)
          par_wpa;
        g (Printf.sprintf "hotpath.%s.interp.stmts_per_sec" w.name) interp_sps;
        g (Printf.sprintf "hotpath.%s.interp.native_stmts_per_sec" w.name)
          native_sps;
        g (Printf.sprintf "hotpath.%s.serial.accesses_per_sec" w.name)
          serial_aps;
        g (Printf.sprintf "hotpath.%s.slowdown_serial" w.name) slowdown;
        Obs.Counter.add
          (Obs.counter (Printf.sprintf "hotpath.%s.accesses" w.name))
          n;
        [ w.name; string_of_int n;
          Printf.sprintf "%.2e" sig_eps; Printf.sprintf "%.1f" sig_wpa;
          Printf.sprintf "%.2e" perf_eps; Printf.sprintf "%.1f" perf_wpa;
          Printf.sprintf "%.2e" paged_eps; Printf.sprintf "%.1f" paged_wpa;
          Printf.sprintf "%.1f" par_wpa;
          Printf.sprintf "%.2e" interp_sps; Printf.sprintf "%.2e" native_sps;
          Printf.sprintf "%.2e" serial_aps; Printf.sprintf "%.0f" slowdown ])
      (sample ())
  in
  Util.table
    ~columns:
      [ "program"; "accesses"; "sig ev/s"; "sig w/acc"; "perf ev/s";
        "perf w/acc"; "paged ev/s"; "paged w/acc"; "par w/acc"; "interp st/s";
        "native st/s"; "serial acc/s"; "slowdown" ]
    rows;
  print_endline
    "(events/sec: engine alone over a pre-recorded stream; w/acc: GC minor\n\
    \ words allocated per access, par: the parallel profiler's producer;\n\
    \ st/s: interpreted statements/sec,\n\
    \ instrumented into no-op sinks and native; serial acc/s: the whole serial\n\
    \ profiler, perfect + skip; slowdown: serial profiled vs native)"
