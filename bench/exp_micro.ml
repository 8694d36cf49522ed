(* Bechamel micro-benchmarks of the profiler's hot paths: the signature vs
   exact shadow memory, engine throughput with and without §2.4 skipping,
   and the two lock-free queues. These measure the per-operation costs that
   the whole-program slowdowns of Fig 2.9/2.12 are built from. *)

open Bechamel
open Toolkit

let tests () =
  (* pre-record a workload's access stream so the engine is measured alone *)
  let lstacks, stream =
    Util.record_stream
      (Workloads.Registry.program ~size:400 (List.hd Workloads.Textbook.all))
  in
  let feed engine () = Util.replay engine stream in
  let cell =
    Sigmem.Cell.v ~line:1 ~var:(Trace.Intern.Sym.intern "x") ~thread:0 ~time:1
      ~op:0 ~lstack:Trace.Intern.Lstack.empty ~locked:false
  in
  let r = Sigmem.Cell.scratch () and w = Sigmem.Cell.scratch () in
  [ Test.make ~name:"engine/signature"
      (Staged.stage (fun () ->
           feed
             (Profiler.Engine.create ~lstacks (Profiler.Engine.Signature 65_536))
             ()));
    Test.make ~name:"engine/signature+skip"
      (Staged.stage (fun () ->
           feed
             (Profiler.Engine.create ~skip:true ~lstacks
                (Profiler.Engine.Signature 65_536))
             ()));
    Test.make ~name:"engine/perfect"
      (Staged.stage (fun () ->
           feed (Profiler.Engine.create ~lstacks Profiler.Engine.Perfect) ()));
    Test.make ~name:"shadow/signature-rw"
      (Staged.stage (fun () ->
           let s = Sigmem.Signature.create ~slots:65_536 in
           for a = 0 to 4_095 do
             let h = Sigmem.Signature.load s ~addr:a r w in
             Sigmem.Signature.store_write s h cell
           done));
    Test.make ~name:"shadow/perfect-rw"
      (Staged.stage (fun () ->
           let s = Sigmem.Perfect.create ~slots:0 in
           for a = 0 to 4_095 do
             let h = Sigmem.Perfect.load s ~addr:a r w in
             Sigmem.Perfect.store_write s h cell
           done));
    Test.make ~name:"shadow/paged-rw"
      (Staged.stage (fun () ->
           let s = Sigmem.Two_level.create ~slots:0 in
           for a = 0 to 4_095 do
             let h = Sigmem.Two_level.load s ~addr:a r w in
             Sigmem.Two_level.store_write s h cell
           done));
    Test.make ~name:"queue/spsc-push-pop"
      (Staged.stage (fun () ->
           let q = Profiler.Spsc_queue.create ~capacity:64 in
           for k = 0 to 4_095 do
             ignore (Profiler.Spsc_queue.try_push q k);
             ignore (Profiler.Spsc_queue.try_pop q)
           done));
    Test.make ~name:"queue/mpsc-push-pop"
      (Staged.stage (fun () ->
           let q = Profiler.Mpsc_queue.create () in
           for k = 0 to 4_095 do
             Profiler.Mpsc_queue.push q k;
             ignore (Profiler.Mpsc_queue.try_pop q)
           done)) ]

let run () =
  Util.header "Bechamel micro-benchmarks (ns per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let ols_results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        ols_results)
    (tests ())
