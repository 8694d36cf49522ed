(* Fig. 2.9 — profiler time and memory on sequential NAS and Starbench:
   serial profiler vs the parallel profiler in its lock-based and lock-free
   configurations; Fig. 2.10/2.11 — the same for multi-threaded Starbench
   targets.

   Note: on a single-core host the parallel profiler's worker domains
   time-slice with the producer, so its wall-clock "slowdown" shows pure
   synchronization overhead without any concurrency benefit. The lock-free
   vs lock-based comparison is still meaningful, as is the load-balance
   statistic. *)

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

let run_sequential () =
  Util.header
    "Fig 2.9: profiler slowdown (x native) and memory, sequential programs";
  print_endline
    "(single-core host: parallel-profiler columns measure synchronization\n\
    \ overhead only; the paper's 16-core speedups need real cores)";
  let rows = List.map profile_row (Util.nas @ Util.starbench_seq) in
  Util.table
    ~columns:
      [ "program"; "serial"; "4w lock-based"; "4w lock-free"; "8w lock-free";
        "mem MB" ]
    rows;
  print_endline
    "(paper: serial 190x avg; 8T lock-based ~1.6x slower than lock-free;\n\
    \ 16T lock-free 78x avg; 649 MB avg memory)"

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
