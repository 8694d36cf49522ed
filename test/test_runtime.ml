(* lib/runtime: Chase-Lev deque and the work-stealing pool with its
   async/await futures. *)

let test_deque_sequential () =
  let q = Runtime.Deque.create ~capacity:2 () in
  (* LIFO at the owner end *)
  for i = 1 to 100 do
    Runtime.Deque.push q i
  done;
  Alcotest.(check int) "size" 100 (Runtime.Deque.size q);
  Alcotest.(check (option int)) "pop" (Some 100) (Runtime.Deque.pop q);
  (* FIFO at the steal end *)
  Alcotest.(check (option int)) "steal" (Some 1) (Runtime.Deque.steal q);
  Alcotest.(check (option int)) "steal2" (Some 2) (Runtime.Deque.steal q);
  let rec drain acc = match Runtime.Deque.pop q with
    | Some v -> drain (v :: acc)
    | None -> acc
  in
  let rest = drain [] in
  Alcotest.(check int) "drained" 97 (List.length rest);
  Alcotest.(check (option int)) "empty pop" None (Runtime.Deque.pop q);
  Alcotest.(check (option int)) "empty steal" None (Runtime.Deque.steal q)

(* Multi-domain stress: one owner pushing/popping, several thieves
   stealing concurrently.  Every pushed token must be taken exactly once:
   the sum over all takers equals the sum pushed (no loss, no dup). *)
let test_deque_steal_stress () =
  let q = Runtime.Deque.create ~capacity:4 () in
  let n = 20_000 and thieves = 3 in
  let stop = Atomic.make false in
  let stolen_sum = Atomic.make 0 in
  let stolen_cnt = Atomic.make 0 in
  let thief () =
    let sum = ref 0 and cnt = ref 0 in
    while not (Atomic.get stop) do
      match Runtime.Deque.steal q with
      | Some v ->
          sum := !sum + v;
          incr cnt
      | None -> Domain.cpu_relax ()
    done;
    (* final sweep after the owner is done *)
    let continue = ref true in
    while !continue do
      match Runtime.Deque.steal q with
      | Some v ->
          sum := !sum + v;
          incr cnt
      | None -> continue := false
    done;
    ignore (Atomic.fetch_and_add stolen_sum !sum);
    ignore (Atomic.fetch_and_add stolen_cnt !cnt)
  in
  let doms = Array.init thieves (fun _ -> Domain.spawn thief) in
  let own_sum = ref 0 and own_cnt = ref 0 in
  for i = 1 to n do
    Runtime.Deque.push q i;
    (* pop some of our own work back to exercise the owner/thief race on
       the last element *)
    if i mod 3 = 0 then
      match Runtime.Deque.pop q with
      | Some v ->
          own_sum := !own_sum + v;
          incr own_cnt
      | None -> ()
  done;
  Atomic.set stop true;
  Array.iter Domain.join doms;
  (* anything left belongs to the owner *)
  let continue = ref true in
  while !continue do
    match Runtime.Deque.pop q with
    | Some v ->
        own_sum := !own_sum + v;
        incr own_cnt
    | None -> continue := false
  done;
  Alcotest.(check int) "every task taken exactly once" n
    (!own_cnt + Atomic.get stolen_cnt);
  Alcotest.(check int) "token sum preserved" (n * (n + 1) / 2)
    (!own_sum + Atomic.get stolen_sum)

let with_pool ?(domains = 4) f =
  let pool = Runtime.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () ->
      Runtime.Pool.run pool (fun () -> f pool))

(* Recursive fork-join task graph through async/await. *)
let test_async_await_fib () =
  let rec fib_seq k = if k < 2 then k else fib_seq (k - 1) + fib_seq (k - 2) in
  with_pool (fun pool ->
      let rec fib k =
        if k < 8 then fib_seq k
        else
          let a = Runtime.Pool.async pool (fun () -> fib (k - 1)) in
          let b = fib (k - 2) in
          Runtime.Pool.await pool a + b
      in
      Alcotest.(check int) "fib 22" (fib_seq 22) (fib 22))

(* A task that awaits helps by running other tasks inside its own time, so
   only the outermost task on an executor is busy time: over a recursive
   fib task graph, the executors' busy time cannot exceed their number
   times the wall time. *)
let test_busy_not_nested () =
  let rec fib_seq k = if k < 2 then k else fib_seq (k - 1) + fib_seq (k - 2) in
  with_pool ~domains:2 (fun pool ->
      let rec fib k =
        if k < 12 then fib_seq k
        else
          let a = Runtime.Pool.async pool (fun () -> fib (k - 1)) in
          let b = fib (k - 2) in
          Runtime.Pool.await pool a + b
      in
      let before = Runtime.Pool.stats pool in
      let t0 = Obs.now_ns () in
      let got = Runtime.Pool.await pool (Runtime.Pool.async pool (fun () -> fib 24)) in
      let wall = Obs.now_ns () - t0 in
      let after = Runtime.Pool.stats pool in
      Alcotest.(check int) "fib 24" (fib_seq 24) got;
      let busy =
        Array.fold_left ( + ) 0
          (Array.mapi (fun e (s : Runtime.Pool.stats) -> s.busy_ns - before.(e).busy_ns) after)
      in
      if busy > 2 * wall then
        Alcotest.failf "busy %d ns over 2 executors in %d ns of wall time" busy wall)

let test_await_reraises () =
  with_pool (fun pool ->
      let fut =
        Runtime.Pool.async pool (fun () -> raise (Invalid_argument "boom"))
      in
      Alcotest.check_raises "await re-raises" (Invalid_argument "boom")
        (fun () -> Runtime.Pool.await pool fut))

(* Shutdown must drain in-flight fire-and-forget tasks, not drop them. *)
let test_shutdown_in_flight () =
  let pool = Runtime.Pool.create ~domains:4 () in
  let done_cnt = Atomic.make 0 in
  let n = 500 in
  Runtime.Pool.run pool (fun () ->
      for _ = 1 to n do
        ignore
          (Runtime.Pool.async pool (fun () ->
               ignore (Atomic.fetch_and_add done_cnt 1)))
      done);
  Runtime.Pool.shutdown pool;
  Alcotest.(check int) "all tasks ran before shutdown returned" n
    (Atomic.get done_cnt)

(* Only executors submit: a domain outside the pool is refused, not
   queued. *)
let test_submit_non_executor () =
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  with_pool ~domains:2 (fun pool ->
      let outsider =
        Domain.spawn (fun () ->
            refused (fun () -> ignore (Runtime.Pool.async pool ignore))
            && refused (fun () -> Runtime.Pool.inline pool ignore))
      in
      Alcotest.(check bool) "outside domain refused" true (Domain.join outsider));
  let pool = Runtime.Pool.create ~domains:2 () in
  let unenrolled =
    refused (fun () -> ignore (Runtime.Pool.async pool ignore))
  in
  Runtime.Pool.shutdown pool;
  Alcotest.(check bool) "caller outside run refused" true unenrolled

let test_pool_stats () =
  let pool = Runtime.Pool.create ~domains:3 () in
  let before = Runtime.Pool.stats pool in
  Runtime.Pool.run pool (fun () ->
      let futs =
        List.init 64 (fun i ->
            Runtime.Pool.async pool (fun () ->
                (* enough work that other executors get a chance to steal *)
                let s = ref 0 in
                for j = 0 to 20_000 do
                  s := !s + ((i * j) land 7)
                done;
                !s))
      in
      List.iter (fun fut -> ignore (Runtime.Pool.await pool fut)) futs);
  (* read before shutdown: every awaited task is already counted *)
  let stats = Runtime.Pool.stats pool in
  Runtime.Pool.shutdown pool;
  let a = Runtime.Pool.activity ~before stats in
  Alcotest.(check int) "every task accounted" 64 a.Runtime.Pool.a_tasks;
  Alcotest.(check int) "one stats slot per executor" 3 (Array.length stats);
  let busy = Array.fold_left (fun a s -> a + s.Runtime.Pool.busy_ns) 0 stats in
  Alcotest.(check bool) "busy time recorded" true (busy > 0);
  Alcotest.(check bool) "imbalance >= 1" true (a.Runtime.Pool.a_imbalance >= 1.0)

(* Executor 0 of a pool is one domain at a time: while one domain is
   enrolled, another's [run] waits, so the two never own deque 0 together. *)
let test_executor0_exclusive () =
  let pool = Runtime.Pool.create ~domains:2 () in
  let inside = Atomic.make 0 and overlaps = Atomic.make 0 in
  let enrol () =
    for _ = 1 to 20 do
      Runtime.Pool.run pool (fun () ->
          if Atomic.fetch_and_add inside 1 > 0 then Atomic.incr overlaps;
          Runtime.Pool.await pool (Runtime.Pool.async pool Domain.cpu_relax);
          Unix.sleepf 0.0002;
          Atomic.decr inside)
    done
  in
  let other = Domain.spawn enrol in
  enrol ();
  Domain.join other;
  Runtime.Pool.shutdown pool;
  Alcotest.(check int) "no two domains enrolled at once" 0
    (Atomic.get overlaps)

(* Validation enrols in the shared pool: two domains validating at once
   get the verdicts a sequential call gives. *)
let test_concurrent_validation () =
  let verdict (t : Transform.Parallelize.t) =
    Transform.Validate.verdict_to_string
      (Transform.Validate.differential ~original:t.original
         ~transformed:t.transformed ())
  in
  let ts = List.map Helpers.transform_case [ ("histogram", 500); ("fib", 12) ] in
  let want = List.map verdict ts in
  for _ = 1 to 3 do
    let got =
      List.map (fun t -> Domain.spawn (fun () -> verdict t)) ts
      |> List.map Domain.join
    in
    Alcotest.(check (list string)) "concurrent verdicts" want got
  done

(* ---- Par_eval: transformed programs on real domains vs the sequential
   interpreter ---- *)

module P = Transform.Parallelize
module S = Discovery.Suggestion

let run_seq prog =
  let r = Mil.Interp.run ~instrument:false prog in
  (r.Mil.Interp.result, r.Mil.Interp.final_globals)

let check_equiv ?pool name prog (transformed : Mil.Ast.program) =
  let seq_result, seq_globals = run_seq prog in
  let pr = Mil.Par_eval.run ?pool transformed in
  Alcotest.(check int) (name ^ ": result") seq_result pr.Mil.Par_eval.result;
  (* the transform may add helper globals (__dx_rdy hand-off flags); only
     the original's globals are observable state *)
  List.iter
    (fun (n, a) ->
      match List.assoc_opt n pr.Mil.Par_eval.final_globals with
      | Some a' -> Alcotest.(check (array int)) (name ^ ": global " ^ n) a a'
      | None -> Alcotest.failf "%s: global %s missing" name n)
    seq_globals

let transform_first prog =
  let report = S.analyze ~threads:4 prog in
  match P.apply_first ~chunks:4 report with
  | Ok (t, _) -> t
  | Error skipped ->
      Alcotest.failf "nothing transformable: %s"
        (String.concat "; " (List.map snd skipped))

let find_workload name =
  List.find
    (fun (w : Workloads.Registry.t) -> w.Workloads.Registry.name = name)
    (Workloads.Textbook.all @ Workloads.Bots.all)

(* A sequential program (no Par, no sync) must evaluate identically: same
   result, globals and print stream as the interpreter, without a pool and
   on a 2-domain pool, on every such registry program. *)
let test_par_eval_sequential () =
  with_pool ~domains:2 @@ fun pool ->
  let prog =
    Workloads.Registry.program ~size:300 (find_workload "histogram")
  in
  check_equiv ~pool "histogram untransformed" prog prog;
  let observe run =
    let prints = ref [] in
    let result, globals = run (fun vs -> prints := vs :: !prints) in
    (result, globals, List.rev !prints)
  in
  let checked = ref 0 in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let prog = Workloads.Registry.program w in
      if Mil.Pass.sequential_program prog then begin
        incr checked;
        let want =
          observe (fun on_print ->
              let r = Mil.Interp.run ~instrument:false ~on_print prog in
              (r.Mil.Interp.result, r.Mil.Interp.final_globals))
        in
        List.iter
          (fun pool ->
            let got =
              observe (fun on_print ->
                  let r = Mil.Par_eval.run ?pool ~on_print prog in
                  (r.Mil.Par_eval.result, r.Mil.Par_eval.final_globals))
            in
            if got <> want then
              Alcotest.failf "%s: Par_eval %s differs from Interp" w.name
                (if pool = None then "without a pool" else "on the pool"))
          [ None; Some pool ]
      end)
    Workloads.Catalog.all;
  Alcotest.(check bool) "most of the registry is sequential" true (!checked > 40)

(* DOALL chunking with privatization + reduction merges, on the pool. *)
let test_par_eval_doall () =
  List.iter
    (fun (name, size) ->
      let prog = Workloads.Registry.program ~size (find_workload name) in
      let t = transform_first prog in
      with_pool ~domains:2 (fun pool ->
          check_equiv ~pool name prog t.P.transformed);
      check_equiv (name ^ " d1") prog t.P.transformed)
    [ ("histogram", 400); ("dotprod", 600); ("matmul", 8) ]

(* bots fib through the fork-join transform: a real recursive task graph
   whose [Par] arms run as async/await tasks. *)
let test_par_eval_fib () =
  let prog = Workloads.Registry.program ~size:13 (find_workload "fib") in
  let t = transform_first prog in
  with_pool (fun pool -> check_equiv ~pool "fib" prog t.P.transformed);
  check_equiv "fib d1" prog t.P.transformed

(* DOACROSS fission: the serialized hand-off loop busy-waits under a lock,
   so its arms must land on dedicated domains (never pool workers). *)
let test_par_eval_doacross () =
  let open Mil.Builder in
  let prog =
    number
      (program
         ~globals:[ garray "a" 128; garray "b" 128; gscalar "s" 1 ]
         ~entry:"main" "pipe"
         [ func "main"
             [ for_ "i" (i 0) (i 128) [ seti "a" (v "i") (v "i" + i 3) ];
               for_ "i" (i 0) (i 128)
                 [ decl "t" (("a".%[v "i"] * i 5) % i 97);
                   set "s" ((v "s" * i 3 + v "t") % i 1009);
                   seti "b" (v "i") (v "s") ];
               return (v "s" + "b".%[i 100]) ] ])
  in
  let report = S.analyze ~threads:4 prog in
  let suggestion =
    match
      List.find_opt
        (fun (s : S.t) ->
          match s.S.kind with S.Sdoacross _ -> true | _ -> false)
        report.S.suggestions
    with
    | Some s -> s
    | None -> Alcotest.fail "no DOACROSS suggestion"
  in
  match P.apply ~chunks:3 report suggestion with
  | Error e -> Alcotest.failf "DOACROSS transform failed: %s" e
  | Ok t ->
      with_pool ~domains:3 (fun pool ->
          check_equiv ~pool "doacross" prog t.P.transformed)

(* Runtime errors inside a task surface, and don't wedge the run. *)
let test_par_eval_error_propagates () =
  let open Mil.Builder in
  let prog =
    number
      (program ~globals:[ garray "a" 8 ] ~entry:"main" "oob"
         [ func "main"
             [ par [ [ seti "a" (i 99) (i 1) ]; [ seti "a" (i 0) (i 1) ] ];
               return (i 0) ] ])
  in
  with_pool ~domains:2 @@ fun pool ->
  match Mil.Par_eval.run ~pool prog with
  | _ -> Alcotest.fail "expected Runtime_error"
  | exception Mil.Interp.Runtime_error _ -> ()

(* The caller of [Par_eval.run] is executor 0 and runs a sync-free [Par]'s
   first arm as one of its tasks, so two equal arms on a 2-domain pool
   keep both executors busy, and every arm is counted. *)
let test_par_eval_two_arms () =
  let prog =
    let open Mil.Builder in
    let arm x =
      [ for_ "i" (i 0) (i 400_000) [ set x ((v x + v "i") % i 1009) ] ]
    in
    number
      (program
         ~globals:[ gscalar "x" 0; gscalar "y" 0 ]
         ~entry:"main" "two_arms"
         [ func "main" [ par [ arm "x"; arm "y" ]; return (v "x" + v "y") ] ])
  in
  let want = (Mil.Interp.run ~instrument:false prog).Mil.Interp.result in
  with_pool ~domains:2 @@ fun pool ->
  for _ = 1 to 5 do
    let before = Runtime.Pool.stats pool in
    let r = Mil.Par_eval.run ~pool prog in
    let after = Runtime.Pool.stats pool in
    Alcotest.(check int) "result" want r.Mil.Par_eval.result;
    Array.iteri
      (fun e (s : Runtime.Pool.stats) ->
        let busy = s.busy_ns - before.(e).busy_ns in
        if busy <= 0 then Alcotest.failf "executor %d was never busy" e)
      after;
    let a = Runtime.Pool.activity ~before after in
    Alcotest.(check int) "both arms counted" 2 a.Runtime.Pool.a_tasks;
    if a.Runtime.Pool.a_imbalance >= 1.5 then
      Alcotest.failf "imbalance %.2f" a.Runtime.Pool.a_imbalance
  done

(* One persistent pool per executor count; Measure's 2-domain row runs on
   it, and the pool's stats grow by exactly the tasks Measure reports. *)
let test_shared_pool_measure () =
  let pool = Runtime.Pool.shared 2 in
  Alcotest.(check bool) "one pool per executor count" true
    (pool == Runtime.Pool.shared 2);
  let t =
    transform_first
      (Workloads.Registry.program ~size:500 (find_workload "histogram"))
  in
  let before = Runtime.Pool.stats pool in
  let m =
    Transform.Measure.measure ~domains:2 ~warmup:0 ~reps:3 ~name:"histogram"
      ~original:t.original t.transformed
  in
  let a = Runtime.Pool.activity ~before (Runtime.Pool.stats pool) in
  let d2 =
    List.find
      (fun (r : Transform.Measure.run_stat) -> r.r_domains = 2)
      m.Transform.Measure.m_runs
  in
  Alcotest.(check int) "one task per chunk and rep" 12 d2.r_tasks;
  Alcotest.(check int) "the shared pool ran them" d2.r_tasks
    a.Runtime.Pool.a_tasks

let tests =
  [ Alcotest.test_case "deque: owner LIFO / thief FIFO" `Quick
      test_deque_sequential;
    Alcotest.test_case "deque: multi-domain steal stress" `Quick
      test_deque_steal_stress;
    Alcotest.test_case "async/await: recursive fib" `Quick test_async_await_fib;
    Alcotest.test_case "async/await: exception propagation" `Quick
      test_await_reraises;
    Alcotest.test_case "pool: shutdown drains in-flight tasks" `Quick
      test_shutdown_in_flight;
    Alcotest.test_case "pool: submit from a non-executor raises" `Quick
      test_submit_non_executor;
    Alcotest.test_case "pool: stats accounting" `Quick test_pool_stats;
    Alcotest.test_case "pool: executor 0 is exclusive across domains" `Quick
      test_executor0_exclusive;
    Alcotest.test_case "pool: concurrent validations match sequential" `Quick
      test_concurrent_validation;
    Alcotest.test_case "pool: shared pool runs Measure's 2-domain row" `Quick
      test_shared_pool_measure;
    Alcotest.test_case "par_eval: sequential program equivalence" `Quick
      test_par_eval_sequential;
    Alcotest.test_case "par_eval: DOALL transforms match interp" `Quick
      test_par_eval_doall;
    Alcotest.test_case "par_eval: fib fork-join matches interp" `Quick
      test_par_eval_fib;
    Alcotest.test_case "par_eval: DOACROSS hand-offs match interp" `Quick
      test_par_eval_doacross;
    Alcotest.test_case "par_eval: task errors propagate" `Quick
      test_par_eval_error_propagates;
    Alcotest.test_case "par_eval: two equal arms keep both executors busy"
      `Quick test_par_eval_two_arms;
    Alcotest.test_case "pool: helping tasks are not busy twice" `Quick
      test_busy_not_nested ]
