(* lib/runtime: Chase-Lev deque, work-stealing pool, fork-join scheduler. *)

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

(* The same sum must come out of every chunking strategy. *)
let test_parallel_for_determinism () =
  let n = 50_000 in
  let expect = n * (n - 1) / 2 in
  let chunkings =
    [ Runtime.Sched.Static 1; Runtime.Sched.Static 4; Runtime.Sched.Static 64;
      Runtime.Sched.Guided 1000; Runtime.Sched.Guided 17 ]
  in
  with_pool (fun pool ->
      List.iter
        (fun chunking ->
          let acc = Atomic.make 0 in
          Runtime.Sched.parallel_for ~chunking pool ~lo:0 ~hi:n (fun i ->
              ignore (Atomic.fetch_and_add acc i));
          Alcotest.(check int) "sum" expect (Atomic.get acc))
        chunkings)

let test_parallel_for_ranges_cover () =
  with_pool (fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      let mu = Mutex.create () in
      Runtime.Sched.parallel_for_ranges ~chunking:(Runtime.Sched.Static 7) pool
        ~lo:0 ~hi:n (fun l h ->
          Mutex.lock mu;
          for i = l to h - 1 do
            hits.(i) <- hits.(i) + 1
          done;
          Mutex.unlock mu);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d visited %d times" i c)
        hits)

(* Recursive fork-join task graph through async/await. *)
let test_async_await_fib () =
  let rec fib_seq k = if k < 2 then k else fib_seq (k - 1) + fib_seq (k - 2) in
  with_pool (fun pool ->
      let rec fib k =
        if k < 8 then fib_seq k
        else
          let a = Runtime.Sched.async pool (fun () -> fib (k - 1)) in
          let b = fib (k - 2) in
          Runtime.Sched.await pool a + b
      in
      Alcotest.(check int) "fib 22" (fib_seq 22) (fib 22))

let test_await_reraises () =
  with_pool (fun pool ->
      let fut =
        Runtime.Sched.async pool (fun () -> raise (Invalid_argument "boom"))
      in
      Alcotest.check_raises "await re-raises" (Invalid_argument "boom")
        (fun () -> Runtime.Sched.await pool fut))

(* Shutdown must drain in-flight fire-and-forget tasks, not drop them. *)
let test_shutdown_in_flight () =
  let pool = Runtime.Pool.create ~domains:4 () in
  let done_cnt = Atomic.make 0 in
  let n = 500 in
  Runtime.Pool.run pool (fun () ->
      for _ = 1 to n do
        Runtime.Pool.submit pool (fun () ->
            ignore (Atomic.fetch_and_add done_cnt 1))
      done);
  Runtime.Pool.shutdown pool;
  Alcotest.(check int) "all tasks ran before shutdown returned" n
    (Atomic.get done_cnt)

(* Submissions from a domain that is not a pool executor go through the
   inject queue and still run. *)
let test_external_submit () =
  let pool = Runtime.Pool.create ~domains:2 () in
  let hit = Atomic.make 0 in
  let outsider =
    Domain.spawn (fun () ->
        let fut =
          Runtime.Sched.async pool (fun () ->
              ignore (Atomic.fetch_and_add hit 1);
              41)
        in
        1 + Runtime.Sched.await pool fut)
  in
  let v = Domain.join outsider in
  Runtime.Pool.shutdown pool;
  Alcotest.(check int) "ran once" 1 (Atomic.get hit);
  Alcotest.(check int) "value" 42 v

let test_pool_stats () =
  let pool = Runtime.Pool.create ~domains:3 () in
  Runtime.Pool.run pool (fun () ->
      let futs =
        List.init 64 (fun i ->
            Runtime.Sched.async pool (fun () ->
                (* enough work that other executors get a chance to steal *)
                let s = ref 0 in
                for j = 0 to 20_000 do
                  s := !s + ((i * j) land 7)
                done;
                !s))
      in
      Runtime.Sched.await_all pool futs);
  Runtime.Pool.shutdown pool;
  Alcotest.(check int) "every task accounted" 64 (Runtime.Pool.total_tasks pool);
  let stats = Runtime.Pool.stats pool in
  Alcotest.(check int) "one stats slot per executor" 3 (Array.length stats);
  let busy = Array.fold_left (fun a s -> a + s.Runtime.Pool.busy_ns) 0 stats in
  Alcotest.(check bool) "busy time recorded" true (busy > 0);
  Alcotest.(check bool) "imbalance >= 1" true (Runtime.Pool.imbalance pool >= 1.0)

(* ---- Par_eval: transformed programs on real domains vs the sequential
   interpreter ---- *)

module P = Transform.Parallelize
module S = Discovery.Suggestion

let run_seq prog =
  let r = Mil.Interp.run ~instrument:false prog in
  (r.Mil.Interp.result, r.Mil.Interp.final_globals)

let check_equiv name prog ~domains (transformed : Mil.Ast.program) =
  let seq_result, seq_globals = run_seq prog in
  let pr = Mil.Par_eval.run ~domains transformed in
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
   result, globals and print stream as the interpreter, at 1 and 2 domains,
   on every such registry program. *)
let test_par_eval_sequential () =
  let prog =
    Workloads.Registry.program ~size:300 (find_workload "histogram")
  in
  check_equiv "histogram untransformed" prog ~domains:2 prog;
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
          (fun domains ->
            let got =
              observe (fun on_print ->
                  let r = Mil.Par_eval.run ~domains ~on_print prog in
                  (r.Mil.Par_eval.result, r.Mil.Par_eval.final_globals))
            in
            if got <> want then
              Alcotest.failf "%s: Par_eval at %d domains differs from Interp"
                w.name domains)
          [ 1; 2 ]
      end)
    (Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Starbench.all
   @ Workloads.Bots.all @ Workloads.Apps.all @ Workloads.Splash2x.all
   @ Workloads.Numerics.all @ Workloads.Parsec.all);
  Alcotest.(check bool) "most of the registry is sequential" true (!checked > 40)

(* DOALL chunking with privatization + reduction merges, on the pool. *)
let test_par_eval_doall () =
  List.iter
    (fun (name, size) ->
      let prog = Workloads.Registry.program ~size (find_workload name) in
      let t = transform_first prog in
      check_equiv name prog ~domains:2 t.P.transformed;
      check_equiv (name ^ " d1") prog ~domains:1 t.P.transformed)
    [ ("histogram", 400); ("dotprod", 600); ("matmul", 8) ]

(* bots fib through the fork-join transform: a real recursive task graph
   whose [Par] arms run as async/await tasks. *)
let test_par_eval_fib () =
  let prog = Workloads.Registry.program ~size:13 (find_workload "fib") in
  let t = transform_first prog in
  check_equiv "fib" prog ~domains:4 t.P.transformed;
  check_equiv "fib d1" prog ~domains:1 t.P.transformed

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
  | Ok t -> check_equiv "doacross" prog ~domains:3 t.P.transformed

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
  match Mil.Par_eval.run ~domains:2 prog with
  | _ -> Alcotest.fail "expected Runtime_error"
  | exception Mil.Interp.Runtime_error _ -> ()

let tests =
  [ Alcotest.test_case "deque: owner LIFO / thief FIFO" `Quick
      test_deque_sequential;
    Alcotest.test_case "deque: multi-domain steal stress" `Quick
      test_deque_steal_stress;
    Alcotest.test_case "parallel_for: sum invariant across chunkings" `Quick
      test_parallel_for_determinism;
    Alcotest.test_case "parallel_for_ranges: exact cover" `Quick
      test_parallel_for_ranges_cover;
    Alcotest.test_case "async/await: recursive fib" `Quick test_async_await_fib;
    Alcotest.test_case "async/await: exception propagation" `Quick
      test_await_reraises;
    Alcotest.test_case "pool: shutdown drains in-flight tasks" `Quick
      test_shutdown_in_flight;
    Alcotest.test_case "pool: external submit via inject queue" `Quick
      test_external_submit;
    Alcotest.test_case "pool: stats accounting" `Quick test_pool_stats;
    Alcotest.test_case "par_eval: sequential program equivalence" `Quick
      test_par_eval_sequential;
    Alcotest.test_case "par_eval: DOALL transforms match interp" `Quick
      test_par_eval_doall;
    Alcotest.test_case "par_eval: fib fork-join matches interp" `Quick
      test_par_eval_fib;
    Alcotest.test_case "par_eval: DOACROSS hand-offs match interp" `Quick
      test_par_eval_doacross;
    Alcotest.test_case "par_eval: task errors propagate" `Quick
      test_par_eval_error_propagates ]
