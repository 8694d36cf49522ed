(* Bechamel micro-benchmarks of the profiler's hot paths: the signature vs
   exact shadow memory, engine throughput with and without §2.4 skipping,
   and the lock-free SPSC chunk ring. These measure the per-operation costs
   that the whole-program slowdowns of Fig 2.9/2.12 are built from. *)

open Bechamel
open Toolkit

let tests () =
  (* pre-record a workload's access stream so the engine is measured alone *)
  let lstacks, stream =
    Util.record_stream
      (Workloads.Registry.program ~size:400 (List.hd Workloads.Textbook.all))
  in
  let feed engine () = Util.replay engine stream in
  (* Store one write access into the write slot of the pair at [b]. *)
  let var = Trace.Intern.Sym.intern "x" in
  let store_write st b =
    Sigmem.Store.set st (Sigmem.Store.write_slot b) ~time:1 ~locked:false
      ~line:1 ~var ~thread:0 ~op:0 ~lstack:Trace.Intern.Lstack.empty
  in
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
             let b = Sigmem.Signature.resolve s a in
             Sigmem.Signature.count_store s (Sigmem.Store.write_slot b) ~var;
             store_write s.Sigmem.Signature.store b
           done));
    Test.make ~name:"shadow/perfect-rw"
      (Staged.stage (fun () ->
           let s = Sigmem.Perfect.create () in
           for a = 0 to 4_095 do
             let b = Sigmem.Perfect.resolve s a in
             store_write s.Sigmem.Perfect.data b
           done));
    (* The ring is built once: after its first lap every slot has its
       buffer, so the row times the index moves alone, as a profiling run
       does. *)
    (let q = Profiler.Spsc_queue.create ~locked:false ~capacity:64 in
     Test.make ~name:"queue/spsc-push-pop"
      (Staged.stage (fun () ->
           for k = 0 to 4_095 do
             Trace.Chunk.push_remove (Profiler.Spsc_queue.slot q) k;
             Profiler.Spsc_queue.push q;
             ignore (Profiler.Spsc_queue.next q);
             Profiler.Spsc_queue.release q
           done))) ]

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
