(* Tests for lib/transform: applying suggestions and differentially
   validating the result. The wrong-transform fixture checks that the
   validator actually rejects an unsound parallelization, not just accepts
   sound ones. *)

open Mil
module P = Transform.Parallelize
module V = Transform.Validate
module S = Discovery.Suggestion

let analyze prog = S.analyze ~threads:4 prog

let apply_first_exn report =
  match P.apply_first ~chunks:4 report with
  | Ok (t, _) -> t
  | Error skipped ->
      Alcotest.failf "nothing transformable: %s"
        (String.concat "; " (List.map snd skipped))

(* DOALL with a scalar reduction: sum of a filled array. *)
let reduction_prog =
  let open Builder in
  number
    (program ~globals:[ garray "a" 256; gscalar "s" 0 ] ~entry:"main" "red"
       [ func "main"
           [ for_ "i" (i 0) (i 256) [ seti "a" (v "i") (v "i" % i 9) ];
             for_ "i" (i 0) (i 256) [ set "s" (v "s" + "a".%[v "i"]) ];
             return (v "s") ] ])

let test_doall_reduction () =
  let report = analyze reduction_prog in
  let t = apply_first_exn report in
  Alcotest.(check bool) "plan is a DOALL" true
    (match t.plan.P.p_suggestion.kind with S.Sdoall _ -> true | _ -> false);
  Alcotest.(check bool) "transformed has a Par" true
    (Rewrite.has_par t.transformed);
  let v = V.differential ~original:t.original ~transformed:t.transformed () in
  Alcotest.(check bool) "validation passes" true v.V.v_ok;
  Alcotest.(check int) "no racy RAW in transformed profile" 0 v.V.v_racy_raw;
  let d = V.measure ~original:t.original t.transformed in
  Alcotest.(check bool) "work lands on several threads" true
    (List.length d.V.d_threads >= 4)

(* DOACROSS: a linear recurrence over the array with a dependence-free
   prefix, so the body fissions into a parallel A-part and a serialized
   hand-off B-part. *)
let doacross_prog =
  let open Builder in
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

let test_doacross_pipeline () =
  let report = analyze doacross_prog in
  let doacross =
    List.find_opt
      (fun (s : S.t) -> match s.kind with S.Sdoacross _ -> true | _ -> false)
      report.suggestions
  in
  match doacross with
  | None -> Alcotest.fail "no DOACROSS suggestion for the recurrence loop"
  | Some s -> (
      match P.apply ~chunks:4 report s with
      | Error e -> Alcotest.failf "DOACROSS not transformable: %s" e
      | Ok t ->
          Alcotest.(check bool) "transformed has a Par" true
            (Rewrite.has_par t.transformed);
          let v =
            V.differential ~original:t.original ~transformed:t.transformed ()
          in
          Alcotest.(check bool) "validation passes" true v.V.v_ok)

(* Recursive fork-join (BOTS fib shape). *)
let forkjoin_prog =
  let open Builder in
  number
    (program ~entry:"main" "fibs"
       [ func "fib" ~params:[ "n" ]
           [ when_ (v "n" < i 2) [ return (v "n") ];
             decl "x" (call "fib" [ v "n" - i 1 ]);
             decl "y" (call "fib" [ v "n" - i 2 ]);
             return (v "x" + v "y") ];
         func "main" [ return (call "fib" [ i 10 ]) ] ])

(* The first SPMD suggestion for [prog], applied in 4 chunks. *)
let spmd_transform prog =
  let report = analyze prog in
  match
    List.find_opt
      (fun (s : S.t) -> match s.kind with S.Sspmd _ -> true | _ -> false)
      report.suggestions
  with
  | None -> Alcotest.fail "no SPMD suggestion"
  | Some s -> (
      match P.apply ~chunks:4 report s with
      | Ok t -> t
      | Error e -> Alcotest.failf "fork-join not transformable: %s" e)

let test_recursive_forkjoin () =
  let t = spmd_transform forkjoin_prog in
  Alcotest.(check bool) "transformed has a Par" true
    (Rewrite.has_par t.transformed);
  let v = V.differential ~original:t.original ~transformed:t.transformed () in
  Alcotest.(check bool) "validation passes" true v.V.v_ok

(* The wrong transform: chunking a true recurrence (prefix sum) must be
   caught by differential validation — chunk k reads a value chunk k-1 has
   not written yet. *)
let recurrence_prog =
  let open Builder in
  number
    (program ~globals:[ garray "a" 200 ] ~entry:"main" "rec"
       [ func "main"
           [ for_ "i" (i 0) (i 200) [ seti "a" (v "i") (v "i" % i 13) ];
             for_ "i" (i 1) (i 200)
               [ seti "a" (v "i") ("a".%[v "i"] + "a".%[v "i" - i 1]) ];
             return "a".%[i 199] ] ])

let recurrence_line =
  (* line of the second (recurrence) loop *)
  let find (b : Ast.block) =
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.node with Ast.For { lo = Ast.Int 1; _ } -> Some s.line | _ -> None)
      b
  in
  match recurrence_prog.funcs with
  | [ f ] -> List.hd (find f.body)
  | _ -> assert false

let test_wrong_transform_rejected () =
  match P.naive_doall ~chunks:4 recurrence_prog ~line:recurrence_line with
  | Error e -> Alcotest.failf "naive chunking unexpectedly refused: %s" e
  | Ok transformed ->
      let v =
        V.differential ~original:recurrence_prog ~transformed ()
      in
      Alcotest.(check bool) "validation rejects the recurrence chunking" false
        v.V.v_ok;
      Alcotest.(check bool) "a state mismatch or new race is reported" true
        (v.V.v_mismatches <> [] || v.V.v_new_racy <> [])

(* Validation outcomes are counted in the Obs registry, and both halves of
   each validation are timed: one race check per validation, one
   observation span per pool task. Both transforms run at every seed —
   the reduction combines its partial sums atomically, and the recurrence
   chunking races — so each validation observes its seed-free original
   once and its transform at the two later seeds. *)
let test_validation_counted () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let report = analyze reduction_prog in
  let t = apply_first_exn report in
  ignore (V.differential ~original:t.original ~transformed:t.transformed ());
  (match P.naive_doall ~chunks:4 recurrence_prog ~line:recurrence_line with
  | Ok transformed ->
      ignore (V.differential ~original:recurrence_prog ~transformed ())
  | Error _ -> ());
  Alcotest.(check bool) "pass counted" true
    (Obs.counter_value "transform.validate.pass" >= 1);
  Alcotest.(check bool) "fail counted" true
    (Obs.counter_value "transform.validate.fail" >= 1);
  Alcotest.(check int) "validate.race_check timed per validation" 2
    (Obs.Span.calls "validate.race_check");
  Alcotest.(check int) "validate.observe timed per pool task" 6
    (Obs.Span.calls "validate.observe")

(* Counter deltas over one validation: (runs, decided, pool tasks). *)
let validation_counts ?seeds ~original transformed =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let count () =
    List.map Obs.counter_value
      [ "transform.validate.runs"; "transform.validate.decided";
        "runtime.tasks" ]
  in
  let before = count () in
  let v = V.differential ?seeds ~original ~transformed () in
  match List.map2 ( - ) (count ()) before with
  | [ runs; decided; tasks ] -> (v, (runs, decided, tasks))
  | _ -> assert false

let counts = Alcotest.(triple int int int)

(* Each plain observation is one task of the shared pool, run beside the
   race runs. [transform.validate.runs] counts every interpreter run, the
   race run included; [transform.validate.decided] the later seeds a
   race-free race run stands for. Both originals are seed-free: one run,
   one task. The reduction's transform updates its sum atomically, so it
   runs at both later seeds; fib's fork-join transform is decided by its
   race run, at any number of seeds. *)
let test_validation_tasks () =
  let red = apply_first_exn (analyze reduction_prog) in
  let fib = spmd_transform forkjoin_prog in
  Alcotest.(check bool) "reduction refused" false
    (V.schedule_determinate red.transformed);
  Alcotest.(check bool) "fib admitted" true
    (V.schedule_determinate fib.transformed);
  List.iter
    (fun (what, (t : P.t), seeds, want) ->
      let v, c = validation_counts ?seeds ~original:t.original t.transformed in
      Alcotest.(check bool) (what ^ ": passes") true v.V.v_ok;
      Alcotest.check counts (what ^ ": runs, decided, tasks") want c)
    [ ("reduction", red, None, (4, 0, 3));
      ("fib", fib, None, (2, 2, 1));
      ("fib, 8 seeds", fib, Some (List.init 8 (fun k -> k + 1)), (2, 7, 1)) ]

(* A sequential original that bumps [x] twice, and its transform, whose
   two arms bump it without a lock. *)
let racy_bump =
  let open Builder in
  let bump = set "x" (v "x" + i 1) in
  let prog body =
    number
      (program ~globals:[ gscalar "x" 0 ] ~entry:"main" "bump"
         [ func "main" (body @ [ return (v "x") ]) ])
  in
  (prog [ bump; bump ], prog [ par [ [ bump ]; [ bump ] ] ])

(* The static check admits the racy transform, but its race run without
   preemption reports [x], so that run is discarded and every seed runs
   (the discarded run, the seeded race run, the seed-free original once,
   two later seeds) and [x] is new racy. *)
let test_racy_forkjoin_falls_back () =
  let original, transformed = racy_bump in
  Alcotest.(check bool) "admitted" true (V.schedule_determinate transformed);
  let v, c = validation_counts ~original transformed in
  Alcotest.check counts "runs, decided, tasks" (5, 0, 3) c;
  Alcotest.(check (list string)) "x is new racy" [ "x" ] v.V.v_new_racy;
  Alcotest.(check bool) "validation fails" false v.V.v_ok

(* Each construct through which a seed or a stale address can reach a run
   makes a fork-join program inadmissible; without them it is admitted. *)
let test_determinate_classifier () =
  let open Builder in
  let prog arm =
    number
      (program
         ~globals:[ gscalar "x" 0; gscalar "y" 0; garray "a" 4 ]
         ~entry:"main" "arms"
         [ func "helper" [ return (i 1) ];
           func "main"
             [ par [ [ set "x" (call "helper" []) ]; arm ];
               return (v "x" + v "y") ] ])
  in
  Alcotest.(check bool) "plain fork-join admitted" true
    (V.schedule_determinate (prog [ set "y" (i 2) ]));
  List.iter
    (fun (what, arm) ->
      Alcotest.(check bool) (what ^ " refused") false
        (V.schedule_determinate (prog arm)))
    [ ("rand", [ set "y" (call "rand" [ i 10 ]) ]);
      ("print", [ call_ "print" [ v "y" ] ]);
      ("lock", [ lock "m"; set "y" (i 2); unlock "m" ]);
      ("atomic update", [ atomic_set "y" (v "y" + i 1) ]);
      ("barrier", [ barrier "b" ]);
      ("free", [ free "a" ]) ];
  let in_callee =
    number
      (program ~globals:[ gscalar "x" 0 ] ~entry:"main" "callee"
         [ func "noisy" [ return (call "rand" [ i 3 ]) ];
           func "main"
             [ par [ [ set "x" (call "noisy" []) ]; [] ]; return (v "x") ] ])
  in
  Alcotest.(check bool) "rand in a callee refused" false
    (V.schedule_determinate in_callee)

(* The determinacy argument, checked on the corpus: every registry
   transform the classifier admits and whose race run is race-free
   observes, at the default seeds and at seeds 1-8, what its race run
   observed. *)
let test_determinate_transforms_agree () =
  let decided =
    List.filter_map
      (fun ((w : Workloads.Registry.t), t) ->
        match t with
        | Some ((t : P.t), _) when V.schedule_determinate t.transformed ->
            let hb, r = Profiler.Happens_before.run ~seed:42 t.transformed in
            if Profiler.Happens_before.races hb <> [] then None
            else begin
              let race =
                V.observation_of ~result:r.Interp.result
                  ~globals:r.Interp.final_globals []
              in
              List.iter
                (fun seed ->
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s: seed %d observes as its race run"
                       w.name seed)
                    [] (V.diff_observations race (V.observe ~seed t.transformed)))
                (V.default_seeds @ List.init 8 (fun k -> k + 1));
              Some w.name
            end
        | _ -> None)
      (Lazy.force Helpers.first_transforms)
  in
  Alcotest.(check int) "registry transforms decided by their race run" 16
    (List.length decided)

(* [transform.validate.cooperative] counts race runs made without
   preemption: one per schedule-determinate transform, decided or
   discarded, and none for any other. *)
let test_cooperative_counted () =
  let racy_original, racy = racy_bump in
  let red = apply_first_exn (analyze reduction_prog) in
  let fib = spmd_transform forkjoin_prog in
  List.iter
    (fun (what, original, transformed, want) ->
      Obs.enable ();
      Fun.protect ~finally:Obs.disable @@ fun () ->
      let count () =
        ( Obs.counter_value "transform.validate.cooperative",
          Obs.counter_value "transform.validate.decided" )
      in
      let c0, d0 = count () in
      ignore (V.differential ~original ~transformed ());
      let c1, d1 = count () in
      Alcotest.(check (pair int int))
        (what ^ ": cooperative, decided") want (c1 - c0, d1 - d0))
    [ ("fib", fib.original, fib.transformed, (1, 2));
      ("racy fork-join", racy_original, racy, (1, 0));
      ("reduction", red.original, red.transformed, (0, 0)) ]

(* The cooperative race run decides the same transforms as the seeded one:
   every registry transform the classifier admits reports, without
   preemption, the racy set and the observation of its seeded race run at
   each default seed, with no fiber switch. *)
let test_cooperative_race_run_agrees () =
  let race_free =
    List.filter_map
      (fun ((w : Workloads.Registry.t), t) ->
        match t with
        | Some ((t : P.t), _) when V.schedule_determinate t.transformed ->
            let run ~preempt seed =
              let hb, r =
                Profiler.Happens_before.run ~preempt ~seed t.transformed
              in
              ( Profiler.Happens_before.races hb,
                V.observation_of ~result:r.Interp.result
                  ~globals:r.Interp.final_globals [],
                r.Interp.r_stats.switches )
            in
            let agree seed =
              let races, obs, _ = run ~preempt:true seed in
              let coop_races, coop_obs, switches = run ~preempt:false seed in
              let what = Printf.sprintf "%s, seed %d: %s" w.name seed in
              Alcotest.(check int) (what "no switch") 0 switches;
              Alcotest.(check (list string)) (what "same observation") []
                (V.diff_observations obs coop_obs);
              Alcotest.(check (list (triple string int int))) (what "same races")
                races coop_races;
              races = []
            in
            let free = List.map agree V.default_seeds in
            if List.for_all Fun.id free then Some w.name else None
        | _ -> None)
      (Lazy.force Helpers.first_transforms)
  in
  Alcotest.(check int) "race-free determinate registry transforms" 16
    (List.length race_free)

(* Without preemption a fork-join program runs its serial elision: each
   [Par] runs its first arm first, to its end, nested forks included. *)
let test_cooperative_serial_elision () =
  let prog =
    let open Builder in
    let out k = call_ "print" [ i k ] in
    number
      (program ~globals:[] ~entry:"main" "arms"
         [ func "main"
             [ par [ [ out 1; par [ [ out 2 ]; [ out 3 ] ] ]; [ out 4 ] ];
               return (i 0) ] ])
  in
  let prints = ref [] in
  let r =
    Interp.run ~preempt:false ~on_print:(fun vs -> prints := vs :: !prints) prog
  in
  Alcotest.(check (list (list int))) "arms in program order"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] (List.rev !prints);
  Alcotest.(check int) "no switch" 0 r.Interp.r_stats.switches

(* Without preemption a thread runs until it blocks, so locks and barriers
   still hand threads over: every threaded registry program completes. *)
let test_cooperative_threaded_complete () =
  let threaded =
    List.filter
      (fun w -> Rewrite.has_par (Workloads.Registry.program w))
      Workloads.Catalog.all
  in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      match
        Profiler.Happens_before.run ~preempt:false (Workloads.Registry.program w)
      with
      | _, r ->
          Alcotest.(check int) (w.name ^ ": no switch") 0
            r.Interp.r_stats.switches
      | exception Interp.Deadlock -> Alcotest.failf "%s: deadlock" w.name)
    threaded;
  Alcotest.(check int) "threaded registry programs" 17 (List.length threaded)

(* The transform-measure programs at small sizes validate cleanly: equal
   observations under every seed, no new racy variable, and no racy RAW
   record in the transformed profile. The five fork-join transforms that
   never call [rand] have both later seeds decided by their race run;
   histogram and match_count call [rand] and run every seed. *)
let test_transform_measure_verdicts () =
  List.iter
    (fun ((name, size) as case) ->
      let t = Helpers.transform_case case in
      let v, (_, decided, _) =
        validation_counts ~original:t.original t.transformed
      in
      let what = Printf.sprintf "%s@%d: %s" name size in
      Alcotest.(check bool) (what "ok") true v.V.v_ok;
      Alcotest.(check (list (pair int string))) (what "mismatches") []
        v.V.v_mismatches;
      Alcotest.(check (list string)) (what "new racy") [] v.V.v_new_racy;
      Alcotest.(check int) (what "racy RAW") 0 v.V.v_racy_raw;
      Alcotest.(check int) (what "seeds decided")
        (if List.mem name [ "histogram"; "match_count" ] then 0 else 2)
        decided)
    Helpers.transform_cases

module HB = Profiler.Happens_before

let hb_races ?seed prog = HB.races (fst (HB.run ?seed prog))

let racy_vars ?seed prog =
  List.sort_uniq compare (List.map (fun (v, _, _) -> v) (hb_races ?seed prog))

(* Validation does not race-run an original without [Par]: one thread's
   accesses are all ordered, so nothing can be racy. Every such registry
   program bears this out. *)
let test_sequential_original_never_racy () =
  let sequential =
    List.filter
      (fun w -> not (Rewrite.has_par (Workloads.Registry.program w)))
      Workloads.Catalog.all
  in
  Alcotest.(check bool) "most of the registry is sequential" true
    (List.length sequential > 40);
  List.iter
    (fun (w : Workloads.Registry.t) ->
      Alcotest.(check int) (w.name ^ ": races") 0
        (List.length (hb_races (Workloads.Registry.program w))))
    sequential

(* A threaded original that already races: two threads bump [c] without a
   lock, then a sequential loop fills [a]. Its race must be found in the
   original's own profile, so that the transformed program's copy of it is
   not reported as new. *)
let racy_original =
  let open Builder in
  number
    (program ~globals:[ gscalar "c" 0; garray "a" 64 ] ~entry:"main" "racy"
       [ func "main"
           [ par
               [ [ for_ "i" (i 0) (i 40) [ set "c" (v "c" + i 1) ] ];
                 [ for_ "i" (i 0) (i 40) [ set "c" (v "c" + i 2) ] ] ];
             for_ "i" (i 0) (i 64) [ seti "a" (v "i") (v "i" * v "i") ];
             return (v "c" + "a".%[i 63]) ] ])

let test_threaded_original_race_kept () =
  let original_racy = racy_vars racy_original in
  Alcotest.(check (list string)) "the original races on c" [ "c" ]
    original_racy;
  let t =
    match P.apply_first ~chunks:2 (S.analyze ~threads:2 racy_original) with
    | Ok (t, _) -> t
    | Error _ -> Alcotest.fail "nothing transformable"
  in
  Alcotest.(check bool) "transformed has a Par" true
    (Rewrite.has_par t.transformed);
  let transformed_racy = racy_vars t.transformed in
  Alcotest.(check bool) "the transformed program still races on c" true
    (List.mem "c" transformed_racy);
  let v = V.differential ~original:t.original ~transformed:t.transformed () in
  Alcotest.(check (list string)) "the original's race is not new" []
    v.V.v_new_racy;
  Alcotest.(check bool) "validation passes" true v.V.v_ok

(* With one seed, the only observation of the transformed program is the
   race run's: a validation that forgot to compare it would pass these. *)
let test_one_seed_compares () =
  (match P.naive_doall ~chunks:4 recurrence_prog ~line:recurrence_line with
  | Error e -> Alcotest.failf "naive chunking unexpectedly refused: %s" e
  | Ok transformed ->
      let v =
        V.differential ~seeds:[ 42 ] ~original:recurrence_prog ~transformed ()
      in
      Alcotest.(check bool) "the recurrence chunking fails" false v.V.v_ok;
      Alcotest.(check bool) "with a mismatch at seed 42" true
        (v.V.v_mismatches <> []
        && List.for_all (fun (seed, _) -> seed = 42) v.V.v_mismatches));
  let t =
    match P.apply_first ~chunks:2 (S.analyze ~threads:2 racy_original) with
    | Ok (t, _) -> t
    | Error _ -> Alcotest.fail "nothing transformable"
  in
  let v =
    V.differential ~seeds:[ 42 ] ~original:t.original
      ~transformed:t.transformed ()
  in
  Alcotest.(check (list string)) "the threaded original's race is not new" []
    v.V.v_new_racy;
  Alcotest.(check bool) "the threaded original passes at one seed" true
    v.V.v_ok

(* The two-thread counter of examples/race_finder.ml: one arm bumps [hits]
   under a lock, the other forgets it, unless [locked]. *)
let buggy_counter ?(locked = false) () =
  let open Builder in
  (* Fresh statements per use: [number] writes each statement's line. *)
  let bump () = set "hits" (v "hits" + i 1) in
  let locked_bump () = [ lock "m"; bump (); unlock "m" ] in
  number
    (program ~entry:"main" "buggy_counter" ~globals:[ gscalar "hits" 0 ]
       [ func "main"
           [ par
               [ [ for_ "k" (i 0) (i 50) (locked_bump ()) ];
                 [ for_ "k" (i 0) (i 50)
                     (if locked then locked_bump () else [ bump () ]) ] ];
             return (v "hits") ] ])

let test_buggy_counter () =
  Alcotest.(check (list string)) "the unlocked arm races on hits" [ "hits" ]
    (racy_vars (buggy_counter ()));
  Alcotest.(check (list string)) "two locked arms are clean" []
    (racy_vars (buggy_counter ~locked:true ()))

(* The counter of ROADMAP item 2's table: two [Par] arms, each [prefix]
   then [for i in 0..40] of [body] and [c = c + 1]. The paper's rule found
   no race on four of these rows at any of eight seeds, since whether two
   accesses fall in one scramble window depends on the declarations around
   them; happens-before finds it at one seed on every row. *)
let counter ?(prefix = fun () -> []) ?(body = fun () -> []) () =
  let open Builder in
  (* Fresh statements per arm: [number] writes each statement's line. *)
  let arm () =
    prefix () @ [ for_ "i" (i 0) (i 40) (body () @ [ set "c" (v "c" + i 1) ]) ]
  in
  number
    (program ~globals:[ gscalar "c" 0 ] ~entry:"main" "counter"
       [ func "main" [ par [ arm (); arm () ]; return (v "c") ] ])

let test_counter_table () =
  let open Builder in
  List.iter
    (fun (row, prog) ->
      Alcotest.(check (list string)) (row ^ ": c races at seed 42") [ "c" ]
        (racy_vars ~seed:42 prog))
    [ ("nothing", counter ());
      ("one leading var", counter ~prefix:(fun () -> [ decl "t" (i 0) ]) ());
      ( "two leading vars",
        counter ~prefix:(fun () -> [ decl "t" (i 0); decl "u" (i 1) ]) () );
      ( "three leading vars",
        counter
          ~prefix:(fun () -> [ decl "t" (i 0); decl "u" (i 1); decl "w" (i 2) ])
          () );
      ("a leading array", counter ~prefix:(fun () -> [ decl_arr "t" (i 4) ]) ());
      ( "a leading var set in the body",
        counter
          ~prefix:(fun () -> [ decl "t" (i 0) ])
          ~body:(fun () -> [ set "t" (v "i") ])
          () );
      ("a var in the body", counter ~body:(fun () -> [ decl "t" (v "i") ]) ()) ]

(* The unsound chunking of the same counter: its observations equal the
   original's (each increment is one statement, and fibers switch only
   between statements), so only the race check can reject it. *)
let test_naive_counter_rejected () =
  let open Builder in
  let prog =
    number
      (program ~globals:[ gscalar "c" 0 ] ~entry:"main" "counter"
         [ func "main"
             [ for_ "i" (i 0) (i 40) [ set "c" (v "c" + i 1) ];
               return (v "c") ] ])
  in
  let line =
    match prog.funcs with
    | [ { body = s :: _; _ } ] -> s.Ast.line
    | _ -> assert false
  in
  match P.naive_doall ~chunks:2 prog ~line with
  | Error e -> Alcotest.failf "naive chunking unexpectedly refused: %s" e
  | Ok transformed ->
      let v = V.differential ~original:prog ~transformed () in
      Alcotest.(check (list (pair int string))) "observations agree" []
        v.V.v_mismatches;
      Alcotest.(check (list string)) "c is a new racy variable" [ "c" ]
        v.V.v_new_racy;
      Alcotest.(check bool) "validation fails" false v.V.v_ok

(* Every race the paper's rule reports (a timestamp reversal under
   [scramble_unlocked]) on a registry program, happens-before reports at
   the same seed, as the same variable and pair of lines, but one: fmm's
   line 17 writes coarse[1] before barrier(up) and line 10 reads it after.
   The scrambler does not drain its buffer at a barrier, so it can deliver
   the two out of order, though the barrier orders them. *)
let test_hb_contains_reversals () =
  let pair (v, a, b) = (v, min a b, max a b) in
  let barrier_ordered = [ ("fmm", ("coarse", 10, 17)) ] in
  let found = ref 0 in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let prog = Workloads.Registry.program w in
      List.iter
        (fun seed ->
          let hb = List.map pair (hb_races ~seed prog) in
          List.iter
            (fun r ->
              let r = pair r in
              incr found;
              if not (List.mem r hb || List.mem (w.name, r) barrier_ordered)
              then
                let v, a, b = r in
                Alcotest.failf "%s at seed %d: %s %d-%d missed" w.name seed v
                  a b)
            (Profiler.Serial.profile ~scramble_unlocked:true ~seed prog)
              .Profiler.Serial.races)
        [ 1; 2; 3; 4; 5; 42; 1009; 77777 ])
    Workloads.Catalog.all;
  Alcotest.(check bool) "the registry has reversals" true (!found > 0)

(* Clocks hold only the threads in each thread's past: transformed fib@15
   spawns 1,972 threads, and its clocks never hold 8 entries per spawned
   thread between them (dense clocks would hold one per spawned thread
   each). *)
let test_fib_clocks_small () =
  let t = Helpers.transform_case ("fib", 15) in
  let hb, r = HB.run t.P.transformed in
  let spawns = r.Interp.r_stats.spawns in
  Alcotest.(check int) "fib@15 spawns" 1972 spawns;
  Alcotest.(check (list (triple string int int))) "no races" [] (HB.races hb);
  if HB.peak_entries hb >= 8 * spawns then
    Alcotest.failf "%d clock entries for %d threads" (HB.peak_entries hb) spawns

(* [seed_free] is what lets validation observe an original once: whatever it
   accepts must observe the same at every seed. *)
let test_seed_free_premise () =
  let accepted =
    List.filter
      (fun (w : Workloads.Registry.t) ->
        let p = Workloads.Registry.program w in
        let free = V.seed_free p in
        if Rewrite.has_par p then
          Alcotest.(check bool) (w.name ^ ": has Par, not seed-free") false free;
        if free then begin
          let o = V.observe ~seed:42 p in
          List.iter
            (fun seed ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s: seed %d observes as seed 42" w.name seed)
                [] (V.diff_observations o (V.observe ~seed p)))
            [ 1009; 77777 ]
        end;
        free)
      Workloads.Catalog.all
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " calls rand") false
        (V.seed_free (Workloads.Registry.program (Helpers.workload name))))
    [ "histogram"; "match_count" ];
  Alcotest.(check int) "seed-free registry programs" 20 (List.length accepted)

(* [measure] counts the original's accesses from an uninstrumented run: the
   count must equal the instrumented run's access events. *)
let test_measure_serial_total () =
  List.iter
    (fun name ->
      let p = Workloads.Registry.program (Helpers.workload name) in
      let events = ref 0 in
      ignore
        (Interp.run ~seed:42
           ~on_access:(fun ~kind:_ ~addr:_ ~var:_ ~line:_ ~thread:_ ~time:_
               ~op:_ ~lstack:_ ~locked:_ -> incr events)
           p);
      let d = V.measure ~original:p p in
      Alcotest.(check int) (name ^ ": serial total") !events d.V.d_serial_total)
    [ "histogram"; "fib" ]

let tests =
  [ Alcotest.test_case "DOALL with reduction" `Quick test_doall_reduction;
    Alcotest.test_case "measure's serial total is the access count" `Quick
      test_measure_serial_total;
    Alcotest.test_case "DOACROSS pipeline" `Quick test_doacross_pipeline;
    Alcotest.test_case "recursive fork-join" `Quick test_recursive_forkjoin;
    Alcotest.test_case "wrong transform rejected" `Quick
      test_wrong_transform_rejected;
    Alcotest.test_case "validation outcomes counted" `Quick
      test_validation_counted;
    Alcotest.test_case "one pool task per plain observation" `Quick
      test_validation_tasks;
    Alcotest.test_case "a racy fork-join runs every seed" `Quick
      test_racy_forkjoin_falls_back;
    Alcotest.test_case "cooperative race runs counted" `Quick
      test_cooperative_counted;
    Alcotest.test_case "cooperative race run agrees with the seeded one" `Slow
      test_cooperative_race_run_agrees;
    Alcotest.test_case "without preemption a fork-join runs serially" `Quick
      test_cooperative_serial_elision;
    Alcotest.test_case "threaded programs complete without preemption" `Quick
      test_cooperative_threaded_complete;
    Alcotest.test_case "determinacy classifier refuses each construct" `Quick
      test_determinate_classifier;
    Alcotest.test_case "determinate transforms observe as their race run"
      `Slow test_determinate_transforms_agree;
    Alcotest.test_case "transform-measure verdicts at small sizes" `Slow
      test_transform_measure_verdicts;
    Alcotest.test_case "sequential originals never race" `Slow
      test_sequential_original_never_racy;
    Alcotest.test_case "a threaded original's race is not new" `Quick
      test_threaded_original_race_kept;
    Alcotest.test_case "one seed still compares the race run" `Quick
      test_one_seed_compares;
    Alcotest.test_case "seed-free originals observe alike at every seed" `Slow
      test_seed_free_premise;
    Alcotest.test_case "happens-before finds buggy_counter's race" `Quick
      test_buggy_counter;
    Alcotest.test_case "happens-before finds every counter row at one seed"
      `Quick test_counter_table;
    Alcotest.test_case "naive chunking of a counter fails validation" `Quick
      test_naive_counter_rejected;
    Alcotest.test_case "happens-before contains the reversal races" `Slow
      test_hb_contains_reversals;
    Alcotest.test_case "fork-join clocks stay small" `Quick
      test_fib_clocks_small ]
