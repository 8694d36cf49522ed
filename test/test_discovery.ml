(* Tests for parallelism discovery: loop classification against every
   workload's ground truth (the Table 4.1/4.4 machinery), SPMD/MPMD task
   detection (Tables 4.6/4.7), and the ranking metrics of §4.3. *)

module L = Discovery.Loops
module R = Workloads.Registry
module S = Discovery.Suggestion
module T = Discovery.Tasks

let scoreable w = w.R.expected_loops <> [] && not w.R.parallel_target

let check_workload (w : R.t) () =
  let results = Workloads.Score.score_workload w in
  List.iter
    (fun (r : Workloads.Score.loop_result) ->
      if r.expected <> R.Eany then
        Alcotest.(check bool)
          (Printf.sprintf "%s loop@%d expected %s got %s" r.workload r.loop_line
             (R.expectation_to_string r.expected)
             (L.class_to_string r.got))
          true r.exact)
    results

let loop_truth_tests =
  List.concat_map
    (fun w ->
      if scoreable w then
        [ Alcotest.test_case ("ground truth: " ^ w.R.name) `Slow (check_workload w) ]
      else [])
    (Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Starbench.all
   @ Workloads.Apps.all @ Workloads.Numerics.all @ Workloads.Parsec.all)

let check_tasks (w : R.t) () =
  let prog = R.program w in
  let report = Discovery.Suggestion.analyze prog in
  List.iter
    (fun e ->
      let ok =
        match e with
        | R.Sforkjoin f ->
            List.exists
              (fun (s : Discovery.Suggestion.t) ->
                match s.kind with
                | Discovery.Suggestion.Sspmd { s_kind = `Recursive_forkjoin g; _ } ->
                    g = f
                | _ -> false)
              report.suggestions
        | R.Staskloop ->
            List.exists
              (fun (s : Discovery.Suggestion.t) ->
                match s.kind with
                | Discovery.Suggestion.Sspmd { s_kind = `Loop_tasks _; _ } -> true
                | _ -> false)
              report.suggestions
        | R.Smpmd k ->
            List.exists
              (fun (s : Discovery.Suggestion.t) ->
                match s.kind with
                | Discovery.Suggestion.Smpmd m -> m.Discovery.Tasks.m_width >= k
                | _ -> false)
              report.suggestions
        | R.Spipeline k ->
            List.exists
              (fun (s : Discovery.Suggestion.t) ->
                match s.kind with
                | Discovery.Suggestion.Smpmd m ->
                    List.length m.Discovery.Tasks.m_stages >= k
                | _ -> false)
              report.suggestions
      in
      Alcotest.(check bool) (w.R.name ^ " task expectation") true ok)
    w.R.expected_tasks

let task_truth_tests =
  List.concat_map
    (fun w ->
      if w.R.expected_tasks <> [] then
        [ Alcotest.test_case ("tasks: " ^ w.R.name) `Slow (check_tasks w) ]
      else [])
    (Workloads.Bots.all @ Workloads.Apps.all @ Workloads.Parsec.all)

(* ---- targeted classification tests ---- *)

let analyze p =
  let report = Discovery.Suggestion.analyze p in
  report.Discovery.Suggestion.loops

let open_b = Mil.Builder.number

let test_doall_basic () =
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t" ~globals:[ garray "a" 64 ]
         [ func "main" [ for_ "k" (i 0) (i 64) [ seti "a" (v "k") (v "k") ] ] ])
  in
  match analyze p with
  | [ a ] -> Alcotest.(check string) "doall" "DOALL" (L.class_to_string a.L.cls)
  | _ -> Alcotest.fail "expected one loop"

let test_false_doall_blocked () =
  (* a[k] = a[k-1]: recurrence, must be sequential with the blocking dep
     reported *)
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t" ~globals:[ garray "a" 64 ]
         [ func "main"
             [ seti "a" (i 0) (i 1);
               for_ "k" (i 1) (i 64)
                 [ seti "a" (v "k") ("a".%[v "k" - i 1] + i 1) ] ] ])
  in
  match analyze p with
  | [ a ] ->
      Alcotest.(check string) "sequential" "sequential" (L.class_to_string a.L.cls);
      Alcotest.(check bool) "blocking dep reported" true (a.L.blocking <> [])
  | _ -> Alcotest.fail "expected one loop"

let test_reduction_classified () =
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t" ~globals:[ garray "a" 64 ]
         [ func "main"
             [ decl "s" (i 0);
               for_ "k" (i 0) (i 64) [ seti "a" (v "k") (v "k") ];
               for_ "k" (i 0) (i 64) [ set "s" (v "s" + "a".%[v "k"]) ] ] ])
  in
  match analyze p with
  | [ _; b ] ->
      Alcotest.(check string) "doall(reduction)" "DOALL(reduction)"
        (L.class_to_string b.L.cls);
      Alcotest.(check (list string)) "reduction var" [ "s" ]
        (List.map fst b.L.reduction_vars)
  | _ -> Alcotest.fail "expected two loops"

let test_privatizable_reported () =
  (* t written then read each iteration, declared outside: name dependence *)
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t" ~globals:[ garray "a" 64 ]
         [ func "main"
             [ decl "t" (i 0);
               for_ "k" (i 0) (i 64)
                 [ set "t" (v "k" * i 2); seti "a" (v "k") (v "t") ] ] ])
  in
  match analyze p with
  | [ a ] ->
      Alcotest.(check string) "doall" "DOALL" (L.class_to_string a.L.cls);
      Alcotest.(check (list string)) "private var" [ "t" ] a.L.private_vars
  | _ -> Alcotest.fail "expected one loop"

let test_doacross_partial () =
  (* chain on s, but the heavy a[] part of the body is iteration-independent:
     DOACROSS *)
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t" ~globals:[ garray "a" 64; gscalar "s" 0 ]
         [ func "main"
             [ for_ "k" (i 1) (i 64)
                 [ seti "a" (v "k") ((v "k" * i 17) % i 23);
                   set "s" ((v "s" * i 31) + "a".%[v "k"]) ] ] ])
  in
  match analyze p with
  | [ a ] ->
      Alcotest.(check string) "doacross" "DOACROSS" (L.class_to_string a.L.cls);
      Alcotest.(check bool) "has free CUs or multiple body CUs" true
        (a.L.free_cus > 0 || List.length a.L.body_cus > 1)
  | _ -> Alcotest.fail "expected one loop"

let test_while_cond_var_blocks () =
  (* x += step drives the while condition: never DOALL even though the update
     looks like a reduction *)
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t" ~globals:[ gscalar "x" 0 ]
         [ func "main" [ while_ (v "x" < i 50) [ set "x" (v "x" + i 3) ] ] ])
  in
  match analyze p with
  | [ a ] ->
      Alcotest.(check bool) "not parallelisable" true
        (a.L.cls = L.Sequential || a.L.cls = L.Doacross)
  | _ -> Alcotest.fail "expected one loop"

let test_zero_iteration_loops_skipped () =
  let p =
    let open Mil.Builder in
    open_b
      (program ~entry:"main" "t"
         [ func "main" [ for_ "k" (i 0) (i 0) [ set "k" (v "k") ] ] ])
  in
  Alcotest.(check int) "unexecuted loop not analysed" 0 (List.length (analyze p))

(* ---- ranking ---- *)

let test_ranking_bounds () =
  List.iter
    (fun (w : R.t) ->
      if scoreable w then begin
        let prog = R.program ~size:(max 8 (w.R.default_size / 4)) w in
        let report = Discovery.Suggestion.analyze prog in
        List.iter
          (fun (s : Discovery.Suggestion.t) ->
            let sc = s.Discovery.Suggestion.score in
            Alcotest.(check bool) "coverage in [0,1]" true
              (sc.Discovery.Ranking.coverage >= 0.0 && sc.Discovery.Ranking.coverage <= 1.0);
            Alcotest.(check bool) "local speedup >= 1" true
              (sc.Discovery.Ranking.local_speedup >= 1.0);
            Alcotest.(check bool) "imbalance in [0,1]" true
              (sc.Discovery.Ranking.imbalance >= 0.0 && sc.Discovery.Ranking.imbalance <= 1.0);
            Alcotest.(check bool) "combined rank >= ~1 for real suggestions" true
              (sc.Discovery.Ranking.combined > 0.4))
          report.suggestions
      end)
    Workloads.Textbook.all

(* The ranking's local speedup is the bound of the suggestion's kind, capped
   by the thread count [t] and clamped to >= 1. [registry.digest] pins the
   resulting numbers; this pins the rule. *)
let test_ranking_kind_bounds () =
  let threads = 4 in
  let t = float_of_int threads in
  let bound (s : S.t) =
    let n = float_of_int in
    match s.S.kind with
    | S.Sdoall a -> min t (n a.L.iterations)
    | S.Sdoacross a -> min t (n (max 2 (List.length a.L.body_cus)))
    | S.Sspmd _ -> t
    | S.Smpmd ({ T.m_shape = T.Taskgraph; _ } as m) -> min t (n m.T.m_width)
    | S.Smpmd ({ T.m_shape = T.Pipeline; _ } as m) ->
        min t (n (List.length m.T.m_stages))
  in
  List.iter
    (fun (w : R.t) ->
      let report = S.analyze ~threads (R.program w) in
      List.iter
        (fun (s : S.t) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: %s" w.R.name (S.kind_to_string s.S.kind))
            (Float.max 1.0 (bound s)) s.S.score.Discovery.Ranking.local_speedup)
        report.S.suggestions)
    Workloads.Catalog.all

let test_ranking_prefers_hot_loop () =
  (* In histogram the counting loop dominates; it must outrank the fill. *)
  let w = List.find (fun w -> w.R.name = "histogram") Workloads.Textbook.all in
  let report = Discovery.Suggestion.analyze (R.program w) in
  match report.Discovery.Suggestion.suggestions with
  | top :: _ -> (
      match top.Discovery.Suggestion.kind with
      | Discovery.Suggestion.Sdoall a ->
          Alcotest.(check bool) "hot loop first" true (a.L.instructions > 3000)
      | _ -> Alcotest.fail "expected a DOALL suggestion on top")
  | [] -> Alcotest.fail "no suggestions"

let test_suggestions_sorted () =
  let w = List.find (fun w -> w.R.name = "gzip") Workloads.Apps.all in
  let report = Discovery.Suggestion.analyze (R.program w) in
  let ranks =
    List.map
      (fun (s : Discovery.Suggestion.t) -> s.score.Discovery.Ranking.combined)
      report.suggestions
  in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> compare b a) ranks = ranks)

let test_render_report () =
  let w = List.hd Workloads.Textbook.all in
  let report = Discovery.Suggestion.analyze (R.program w) in
  let s = Discovery.Suggestion.render report in
  Alcotest.(check bool) "mentions suggestions" true
    (Astring_contains.contains s "suggestions")

let tests =
  [ Alcotest.test_case "DOALL basic" `Quick test_doall_basic;
    Alcotest.test_case "recurrence blocked" `Quick test_false_doall_blocked;
    Alcotest.test_case "reduction classified" `Quick test_reduction_classified;
    Alcotest.test_case "privatizable reported" `Quick test_privatizable_reported;
    Alcotest.test_case "DOACROSS partial overlap" `Quick test_doacross_partial;
    Alcotest.test_case "while cond var blocks" `Quick test_while_cond_var_blocks;
    Alcotest.test_case "zero-iteration loops" `Quick test_zero_iteration_loops_skipped;
    Alcotest.test_case "ranking bounds" `Slow test_ranking_bounds;
    Alcotest.test_case "ranking local speedup is the kind's bound" `Slow
      test_ranking_kind_bounds;
    Alcotest.test_case "ranking prefers hot loop" `Quick test_ranking_prefers_hot_loop;
    Alcotest.test_case "suggestions sorted" `Quick test_suggestions_sorted;
    Alcotest.test_case "render report" `Quick test_render_report ]
  @ loop_truth_tests @ task_truth_tests

(* Every bundled workload must run end-to-end through the whole pipeline at a
   reduced size — a smoke test covering the suites (splash2x in particular)
   whose programs are not loop-scored. *)
let test_every_workload_runs () =
  List.iter
    (fun (w : R.t) ->
      let size = max 6 (w.R.default_size / 8) in
      let prog = R.program ~size w in
      let report = Discovery.Suggestion.analyze prog in
      Alcotest.(check bool)
        (w.R.name ^ " profiled some accesses")
        true
        (report.Discovery.Suggestion.profile.Profiler.Serial.accesses > 0))
    Workloads.Catalog.all

(* A region that carries several suggestions (a DOALL loop that is also a
   loop-tasks SPMD one) is measured once: over the whole registry the
   ranking measures exactly the distinct regions that get a suggestion. *)
let test_ranking_measures_each_region_once () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let suggestions, regions =
    List.fold_left
      (fun (n, regions) w ->
        let report = Discovery.Suggestion.analyze (R.program w) in
        let distinct =
          List.sort_uniq compare
            (List.map
               (fun (s : Discovery.Suggestion.t) -> s.region)
               report.suggestions)
        in
        (n + List.length report.suggestions, regions + List.length distinct))
      (0, 0) Workloads.Catalog.all
  in
  Alcotest.(check bool) "some regions carry two suggestions" true
    (suggestions > regions);
  Alcotest.(check int) "one measurement per distinct region" regions
    (Obs.counter_value "discovery.ranking.regions_scored")

let tests =
  tests
  @ [ Alcotest.test_case "every workload runs" `Slow test_every_workload_runs;
      Alcotest.test_case "ranking measures each region once" `Slow
        test_ranking_measures_each_region_once ]
