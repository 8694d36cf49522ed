(* Tests for the schedule model and dependence files added on top of the core
   pipeline: list-scheduling bounds, DOALL modeling, dynamic bottom-up CUs,
   and item-level MPMD extraction. *)

module Sch = Discovery.Schedule

let test_makespan_bounds () =
  let tasks = Sch.independent [ 10; 10; 10; 10; 10; 10; 10; 10 ] in
  let t1 = Sch.total_work tasks in
  Alcotest.(check int) "p=1 is total work" t1 (Sch.makespan ~processors:1 tasks);
  let t4 = Sch.makespan ~processors:4 tasks in
  Alcotest.(check int) "even tasks divide perfectly" (t1 / 4) t4;
  (* makespan can never beat work/p nor the longest task *)
  let uneven = Sch.independent [ 40; 1; 1; 1; 1 ] in
  let m = Sch.makespan ~processors:4 uneven in
  Alcotest.(check bool) "bounded below by longest task" true (m >= 40);
  Alcotest.(check bool) "bounded above by work" true
    (m <= Sch.total_work uneven)

let test_dag_critical_path () =
  (* chain of three: no parallelism possible *)
  let chain =
    [ { Sch.t_id = 0; t_cost = 5; t_deps = [] };
      { Sch.t_id = 1; t_cost = 5; t_deps = [ 0 ] };
      { Sch.t_id = 2; t_cost = 5; t_deps = [ 1 ] } ]
  in
  Alcotest.(check int) "chain runs sequentially" 15
    (Sch.makespan ~processors:4 chain);
  (* diamond: the two middle tasks overlap *)
  let diamond =
    [ { Sch.t_id = 0; t_cost = 5; t_deps = [] };
      { Sch.t_id = 1; t_cost = 10; t_deps = [ 0 ] };
      { Sch.t_id = 2; t_cost = 10; t_deps = [ 0 ] };
      { Sch.t_id = 3; t_cost = 5; t_deps = [ 1; 2 ] } ]
  in
  Alcotest.(check int) "diamond overlaps the middle" 20
    (Sch.makespan ~processors:2 diamond)

let test_speedup_monotone_in_processors () =
  let tasks = Sch.independent (List.init 64 (fun k -> 5 + (k mod 7))) in
  let s p = Sch.speedup ~processors:p tasks in
  Alcotest.(check bool) "more processors never hurt" true
    (s 1 <= s 2 && s 2 <= s 4 && s 4 <= s 8);
  Alcotest.(check (float 1e-9)) "one processor is 1.0" 1.0 (s 1)

let test_doall_model () =
  let sp =
    Sch.doall_speedup ~processors:4 ~iterations:1000 ~loop_instructions:100_000
      ~total_instructions:100_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "fully parallel loop near 4x (got %.2f)" sp)
    true
    (sp > 3.2 && sp <= 4.0);
  let amdahl =
    Sch.doall_speedup ~processors:4 ~iterations:1000 ~loop_instructions:50_000
      ~total_instructions:100_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "half-serial program below 2x (got %.2f)" amdahl)
    true (amdahl < 2.0);
  let tiny =
    Sch.doall_speedup ~processors:4 ~iterations:2 ~loop_instructions:100
      ~total_instructions:100
  in
  Alcotest.(check bool) "two iterations cap at 2x" true (tiny <= 2.0)

let qcheck_makespan_brent =
  let open QCheck in
  Test.make ~name:"makespan respects Brent's bounds" ~count:200
    (make Gen.(pair (int_range 1 8) (list_size (int_range 1 30) (int_range 1 50))))
    (fun (p, costs) ->
      let tasks = Sch.independent costs in
      let t1 = Sch.total_work tasks in
      let tinf = List.fold_left max 0 costs in
      let tp = Sch.makespan ~processors:p tasks in
      tp >= tinf && tp >= (t1 + p - 1) / p && tp <= t1)

(* ---- dynamic bottom-up ---- *)

let test_bottom_up_dynamic () =
  let d = Cunit.Bottom_up.build_dynamic Helpers.fig34 in
  Alcotest.(check bool) "operations tracked" true (d.Cunit.Bottom_up.n_ops > 5);
  let groups = Cunit.Bottom_up.dynamic_group_count d in
  Alcotest.(check bool) "merging reduced groups" true
    (groups < d.Cunit.Bottom_up.n_ops);
  Alcotest.(check bool) "fine graph has RAW edges" true
    (d.Cunit.Bottom_up.d_raw_edges <> [])

let test_bottom_up_finer_than_top_down () =
  let w = List.find (fun (w : Workloads.Registry.t) -> w.name = "CG") Workloads.Nas.all in
  let prog = Workloads.Registry.program ~size:16 w in
  let st = Mil.Static.analyze prog in
  let cures = Cunit.Top_down.build st in
  let fine = Cunit.Bottom_up.build_dynamic prog in
  (* CG's counts, pinned: a port of either construction that changes them
     must say so here. *)
  Alcotest.(check int) "top-down CUs" 15 (List.length cures.Cunit.Top_down.cus);
  Alcotest.(check int) "memory operations" 83 fine.Cunit.Bottom_up.n_ops;
  Alcotest.(check int) "bottom-up groups" 40
    (Cunit.Bottom_up.dynamic_group_count fine);
  Alcotest.(check int) "RAW edges" 22
    (List.length fine.Cunit.Bottom_up.d_raw_edges);
  Alcotest.(check bool) "bottom-up is finer (Fig 3.7)" true
    (Cunit.Bottom_up.dynamic_group_count fine
    > List.length cures.Cunit.Top_down.cus)

(* ---- item-level MPMD ---- *)

let test_mpmd_facedetect_width () =
  let w =
    List.find (fun (w : Workloads.Registry.t) -> w.name = "facedetect")
      Workloads.Apps.all
  in
  let prog = Workloads.Registry.program ~size:100 w in
  let st = Mil.Static.analyze prog in
  let cures = Cunit.Top_down.build st in
  let main_region = Mil.Static.func_region st "main" in
  match Discovery.Tasks.mpmd_of_region cures main_region with
  | Some m ->
      Alcotest.(check int) "Fig 4.10 width is exactly 2" 2
        m.Discovery.Tasks.m_width;
      Alcotest.(check bool) "task graph shape" true
        (m.Discovery.Tasks.m_shape = Discovery.Tasks.Taskgraph)
  | None -> Alcotest.fail "facedetect main must have MPMD structure"

let test_mpmd_ferret_pipeline () =
  let w =
    List.find (fun (w : Workloads.Registry.t) -> w.name = "ferret")
      Workloads.Parsec.all
  in
  let prog = Workloads.Registry.program ~size:20 w in
  let st = Mil.Static.analyze prog in
  let cures = Cunit.Top_down.build st in
  let qloop =
    List.filter
      (fun (reg : Mil.Static.region) ->
        Mil.Static.func_of_region st reg.Mil.Static.id = "main")
      (Mil.Static.loop_regions st)
    |> List.rev |> List.hd
  in
  match Discovery.Tasks.mpmd_of_region cures qloop.Mil.Static.id with
  | Some m ->
      Alcotest.(check int) "four pipeline stages" 4
        (List.length m.Discovery.Tasks.m_stages);
      Alcotest.(check bool) "pipeline shape" true
        (m.Discovery.Tasks.m_shape = Discovery.Tasks.Pipeline)
  | None -> Alcotest.fail "ferret's query loop must be a pipeline"

(* ---- load balance ---- *)

let test_parallel_per_worker () =
  let r = Profiler.Parallel.profile ~workers:4 ~perfect:true Helpers.fig34 in
  Alcotest.(check int) "one counter per worker" 4
    (Array.length r.per_worker);
  Alcotest.(check int) "counters sum to total" r.accesses
    (Array.fold_left ( + ) 0 r.per_worker)

let tests =
  [ Alcotest.test_case "makespan bounds" `Quick test_makespan_bounds;
    Alcotest.test_case "DAG critical path" `Quick test_dag_critical_path;
    Alcotest.test_case "speedup monotone" `Quick test_speedup_monotone_in_processors;
    Alcotest.test_case "DOALL model" `Quick test_doall_model;
    Alcotest.test_case "bottom-up dynamic" `Quick test_bottom_up_dynamic;
    Alcotest.test_case "bottom-up finer than top-down" `Quick
      test_bottom_up_finer_than_top_down;
    Alcotest.test_case "facedetect MPMD width (Fig 4.10)" `Quick
      test_mpmd_facedetect_width;
    Alcotest.test_case "ferret pipeline stages" `Quick test_mpmd_ferret_pipeline;
    Alcotest.test_case "per-worker counters" `Quick test_parallel_per_worker;
    QCheck_alcotest.to_alcotest qcheck_makespan_brent ]
