(* Fig. 2.9 — profiler time and memory on sequential NAS and Starbench:
   serial profiler vs the parallel profiler in its lock-based and lock-free
   configurations; Fig. 2.10/2.11 — the same for multi-threaded Starbench
   targets.

   Note: the parallel columns run 4 and 8 workers beside the producer; on a
   host with fewer cores than that the domains time-slice, so those columns
   show synchronization cost more than concurrency. The lock-free vs
   lock-based comparison is still meaningful, as is the load-balance
   statistic. The profile-large rows at the end compare 1 worker with the
   serial profiler, which two cores can run side by side. *)

let words_to_mb w = float_of_int (w * 8) /. 1024.0 /. 1024.0

let profile_row (w : Workloads.Registry.t) =
  let prog = Workloads.Registry.program w in
  let t_native = Util.native_time prog in
  (* Keep the last timed run's result: the memory column reads its footprint,
     so no extra untimed profiling pass is needed. *)
  let last_serial = ref None in
  let t_serial =
    Util.med_time (fun () ->
        last_serial :=
          Some
            (Profiler.Serial.profile ~shadow:(Profiler.Engine.Signature 100_000)
               prog))
  in
  let t_lockfree w8 =
    Util.med_time ~reps:1 (fun () ->
        Profiler.Parallel.profile ~workers:w8 ~shadow_slots:100_000 prog)
  in
  let t_lockfree4 = t_lockfree 4 in
  let t_lockfree8 = t_lockfree 8 in
  let t_locked =
    Util.med_time ~reps:1 (fun () ->
        Profiler.Parallel.profile ~workers:4 ~queue:Profiler.Parallel.Lock_based
          ~shadow_slots:100_000 prog)
  in
  let footprint =
    match !last_serial with
    | Some (r : Profiler.Serial.result) -> r.footprint_words
    | None -> 0
  in
  [ w.name;
    Printf.sprintf "%.0f" (t_serial /. t_native);
    Printf.sprintf "%.0f" (t_locked /. t_native);
    Printf.sprintf "%.0f" (t_lockfree4 /. t_native);
    Printf.sprintf "%.0f" (t_lockfree8 /. t_native);
    Printf.sprintf "%.1f" (words_to_mb footprint) ]

(* Coefficient of variation of the per-worker access counts under the Eq. 2.1
   modulo distribution alone (§2.3.3). Hot addresses are not redistributed,
   so a program dominated by a few scalars stays skewed. *)
let balance (r : Profiler.Parallel.result) =
  let n = Array.length r.per_worker in
  if n = 0 then 0.0
  else begin
    let mean =
      float_of_int (Array.fold_left ( + ) 0 r.per_worker) /. float_of_int n
    in
    if mean = 0.0 then 0.0
    else begin
      let var =
        Array.fold_left
          (fun acc x ->
            let d = float_of_int x -. mean in
            acc +. (d *. d))
          0.0 r.per_worker
        /. float_of_int n
      in
      sqrt var /. mean
    end
  end

let run_load_balance () =
  Util.header "§2.3.3: worker load balance (coefficient of variation)";
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        let prog = Workloads.Registry.program w in
        let r = Profiler.Parallel.profile ~workers:8 ~shadow_slots:100_000 prog in
        [ w.name;
          String.concat " "
            (Array.to_list (Array.map string_of_int r.per_worker));
          Printf.sprintf "%.3f" (balance r) ])
      [ List.nth Util.nas 2 (* FT *); List.nth Util.nas 3 (* IS *);
        List.hd Util.starbench_seq (* c-ray *) ]
  in
  Util.table ~columns:[ "program"; "per-worker accesses"; "cv" ] rows;
  print_endline
    "(paper: the modulo function distributes addresses evenly and the top-10\n\
    \ hot addresses are redistributed; here they are not, so the output\n\
    \ equals the serial profiler's and hot scalars keep their worker busy)"

(* The parallel profiler at one worker against the serial profiler, on the
   profile-large benchmark's programs and sizes (perfect shadow; serial with
   skip on, the worker with skip off, as that workload runs them), with the
   [profiler.parallel.*] ledger of where the parallel run's time went.

   A fresh process first runs its two domains on one CPU for a second or
   two, so the rows start after a warm-up of at least 3 s. Each program is
   then timed 11 times, serial and parallel alternated, and every column is
   the median of its 11 values. SLOWDOWN_LARGE=name,name,... restricts the
   programs (CI runs histogram alone, with no timing gate). *)
let large_programs () =
  let all = Benchmark.Gen.large in
  Util.env_list "SLOWDOWN_LARGE" ~default:(List.map fst all)
    ~find:(fun name -> Option.map (fun size -> (name, size)) (List.assoc_opt name all))
    ~unknown:(Printf.sprintf "  (slowdown-seq: %s is not a profile-large program)")

let large_reps = 11
let warmup_s = 3.0

(* One parallel run: its time and the ledger's counters over that run, plus
   the buffers its ring allocated. Each is (gauge suffix, counter). *)
let ledger_counters =
  List.map
    (fun name -> (name, "profiler.parallel." ^ name))
    [ "producer_ns"; "push_wait_ns"; "push_waits"; "producer_parks";
      "chunks_shipped";
      "worker.0.engine_ns"; "worker.0.idle_ns"; "worker.0.parks"; "merge_ns";
      "pet_finish_ns"; "minor_gcs" ]
  @ [ ("chunk.buffers", "profiler.chunk.buffers") ]

let ledger_names = List.map fst ledger_counters

let run_parallel prog =
  let values () = List.map (fun (_, c) -> Obs.counter_value c) ledger_counters in
  let before = values () in
  let _, t =
    Util.time (fun () -> Profiler.Parallel.profile ~workers:1 ~perfect:true prog)
  in
  (t, List.map2 ( - ) (values ()) before)

let run_serial prog =
  snd
    (Util.time (fun () ->
         Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect ~skip:true prog))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let run_one_worker () =
  Util.header
    "Fig 2.9 on profile-large: serial vs 1-worker parallel, with its ledger";
  let progs =
    List.map
      (fun s -> (Benchmark.Gen.label s, Benchmark.Gen.build s))
      (large_programs ())
  in
  let t0 = Unix.gettimeofday () in
  while progs <> [] && Unix.gettimeofday () -. t0 < warmup_s do
    List.iter
      (fun (_, prog) ->
        ignore (run_serial prog);
        ignore (run_parallel prog))
      progs
  done;
  let ratios = ref [] in
  let rows =
    List.map
      (fun (label, prog) ->
        let runs =
          List.init large_reps (fun _ ->
              let s = run_serial prog in
              let p, ledger = run_parallel prog in
              (s, p, ledger))
        in
        let ms xs = 1e3 *. median xs in
        let serial = ms (List.map (fun (s, _, _) -> s) runs) in
        let par = ms (List.map (fun (_, p, _) -> p) runs) in
        let ratio = par /. serial in
        ratios := ratio :: !ratios;
        let ledger =
          List.mapi
            (fun k name ->
              (name, median (List.map (fun (_, _, l) -> List.nth l k) runs)))
            ledger_names
        in
        let g name v =
          Obs.Gauge.set
            (Obs.gauge (Printf.sprintf "slowdown.large.%s.%s" label name))
            v
        in
        g "serial_ms" serial;
        g "parallel_ms" par;
        g "ratio" ratio;
        List.iter (fun (name, v) -> g name (float_of_int v)) ledger;
        let l name = List.assoc name ledger in
        let ns_ms name = Printf.sprintf "%.1f" (float_of_int (l name) /. 1e6) in
        let ns_us name = Printf.sprintf "%.0f" (float_of_int (l name) /. 1e3) in
        [ label; Util.f1 serial; Util.f1 par; Util.f2 ratio; ns_ms "producer_ns";
          ns_ms "push_wait_ns";
          Printf.sprintf "%d/%d" (l "push_waits") (l "chunks_shipped");
          string_of_int (l "producer_parks");
          ns_ms "worker.0.engine_ns"; ns_ms "worker.0.idle_ns";
          string_of_int (l "worker.0.parks"); ns_us "merge_ns";
          ns_us "pet_finish_ns"; string_of_int (l "minor_gcs") ])
      progs
  in
  Util.table
    ~columns:
      [ "program"; "serial ms"; "1w ms"; "1w/serial"; "producer"; "push wait";
        "waited/chunks"; "producer parks"; "engine"; "idle"; "worker parks";
        "merge us"; "pet us"; "minor GCs" ]
    rows;
  Printf.printf
    "(ms, median of %d alternated runs after a %.0f s warm-up; %d of %d \
     programs at 1w/serial <= 0.80)\n"
    large_reps warmup_s
    (List.length (List.filter (fun r -> r <= 0.80) !ratios))
    (List.length !ratios)

let run_sequential () =
  Util.header
    "Fig 2.9: profiler slowdown (x native) and memory, sequential programs";
  print_endline
    "(4 and 8 workers beside the producer time-slice on a host with fewer\n\
    \ cores; the paper's 16-core speedups need real cores)";
  let rows = List.map profile_row (Util.nas @ Util.starbench_seq) in
  Util.table
    ~columns:
      [ "program"; "serial"; "4w lock-based"; "4w lock-free"; "8w lock-free";
        "mem MB" ]
    rows;
  print_endline
    "(paper: serial 190x avg; 8T lock-based ~1.6x slower than lock-free;\n\
    \ 16T lock-free 78x avg; 649 MB avg memory)";
  run_one_worker ()

let run_parallel_targets () =
  Util.header "Fig 2.10/2.11: profiling multi-threaded Starbench targets";
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        let prog = Workloads.Registry.program w in
        let t_native = Util.native_time prog in
        let last = ref None in
        let t_serial =
          Util.med_time (fun () ->
              last :=
                Some
                  (Profiler.Serial.profile
                     ~shadow:(Profiler.Engine.Signature 100_000) prog))
        in
        let r =
          match !last with Some r -> r | None -> assert false
        in
        let t_par =
          Util.med_time ~reps:1 (fun () ->
              Profiler.Parallel.profile ~workers:8 ~shadow_slots:100_000 prog)
        in
        [ w.name;
          string_of_int r.accesses;
          Printf.sprintf "%.0f" (t_serial /. t_native);
          Printf.sprintf "%.0f" (t_par /. t_native);
          Printf.sprintf "%.1f" (words_to_mb r.footprint_words);
          string_of_int (List.length r.races) ])
      Util.starbench_par
  in
  Util.table
    ~columns:[ "program"; "accesses"; "serial"; "8w lock-free"; "mem MB"; "races" ]
    rows;
  print_endline
    "(paper: 346x avg at 8T, 261x at 16T; higher than sequential targets\n\
    \ because of cross-thread contention)"
