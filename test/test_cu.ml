(* Tests for computational units: top-down construction (Algorithm 3), the
   special-variable rules of §3.2.5, CU graph edge admission (Table 3.1),
   SCC/chain contraction, the bottom-up variant, and re-convergence points. *)

open Mil
module B = Builder
module TD = Cunit.Top_down

let build p =
  let st = Static.analyze p in
  (st, TD.build st)

let loop_region st =
  List.hd (Static.loop_regions st)

(* Fig 3.4: locals inside the loop -> one CU. *)
let test_fig34_single_cu () =
  let st, res = build Helpers.fig34 in
  let l = loop_region st in
  Alcotest.(check int) "single CU" 1 (List.length (TD.cus_of_region res l.Static.id));
  Alcotest.(check bool) "region is one CU" true
    (TD.region_is_single_cu res l.Static.id);
  let cu = List.hd (TD.cus_of_region res l.Static.id) in
  Alcotest.(check bool) "reads x" true (Cunit.Cu.SS.mem "x" cu.Cunit.Cu.read_set);
  Alcotest.(check bool) "writes x" true (Cunit.Cu.SS.mem "x" cu.Cunit.Cu.write_set)

(* §3.2.4 variant: a and b declared outside -> two CUs. *)
let test_fig34b_two_cus () =
  let p =
    let open B in
    Helpers.prog_of_main
      [ decl "x" (i 3);
        decl "a" (i 0);
        decl "b" (i 0);
        for_ "it" (i 0) (i 20)
          [ set "a" (v "x" + call "rand" [ i 10 ] / v "x");
            set "b" (v "x" - call "rand" [ i 10 ] / v "x");
            set "x" (v "a" + v "b") ] ]
  in
  let st, res = build p in
  let l = loop_region st in
  let cus = TD.cus_of_region res l.Static.id in
  Alcotest.(check int) "two CUs" 2 (List.length cus);
  (* first CU writes a,b; second reads a,b and writes x *)
  let by_line = List.sort (fun (a : Cunit.Cu.t) b -> compare a.Cunit.Cu.first_line b.Cunit.Cu.first_line) cus in
  match by_line with
  | [ c1; c2 ] ->
      Alcotest.(check bool) "CU1 writes a" true (Cunit.Cu.SS.mem "a" c1.Cunit.Cu.write_set);
      Alcotest.(check bool) "CU2 reads b" true (Cunit.Cu.SS.mem "b" c2.Cunit.Cu.read_set);
      Alcotest.(check bool) "CU2 writes x" true (Cunit.Cu.SS.mem "x" c2.Cunit.Cu.write_set)
  | _ -> Alcotest.fail "expected two CUs"

let test_function_params_and_ret () =
  let p =
    let open B in
    B.number
      (B.program ~entry:"main" "t"
         [ B.func "f" ~params:[ "a"; "b" ] [ return (v "a" + v "b") ];
           B.func "main" [ decl "r" (call "f" [ i 1; i 2 ]) ] ])
  in
  let st, res = build p in
  let rid = Static.func_region st "f" in
  let cus = TD.cus_of_region res rid in
  Alcotest.(check int) "function body is one CU" 1 (List.length cus);
  let cu = List.hd cus in
  Alcotest.(check bool) "params in read set" true
    (Cunit.Cu.SS.mem "a" cu.Cunit.Cu.read_set && Cunit.Cu.SS.mem "b" cu.Cunit.Cu.read_set);
  Alcotest.(check bool) "ret in write set" true
    (Cunit.Cu.SS.mem "ret" cu.Cunit.Cu.write_set)

let test_loop_index_rule () =
  (* Index not written in body: excluded from CU globals. *)
  let p1 =
    let open B in
    Helpers.prog_of_main ~globals:[ B.garray "a" 32 ]
      [ for_ "k" (i 0) (i 32) [ seti "a" (v "k") (v "k") ] ]
  in
  let st1, res1 = build p1 in
  let cu1 = List.hd (TD.cus_of_region res1 (loop_region st1).Static.id) in
  Alcotest.(check bool) "index excluded" false
    (Cunit.Cu.SS.mem "k" cu1.Cunit.Cu.read_set);
  (* Index written in body: it becomes global to the loop. *)
  let p2 =
    let open B in
    Helpers.prog_of_main ~globals:[ B.garray "a" 32 ]
      [ for_ "k" (i 0) (i 32)
          [ seti "a" (v "k") (v "k"); set "k" (v "k" + i 1) ] ]
  in
  let st2, res2 = build p2 in
  let cu2s = TD.cus_of_region res2 (loop_region st2).Static.id in
  let any_k =
    List.exists
      (fun (cu : Cunit.Cu.t) ->
        Cunit.Cu.SS.mem "k" cu.Cunit.Cu.read_set
        || Cunit.Cu.SS.mem "k" cu.Cunit.Cu.write_set)
      cu2s
  in
  Alcotest.(check bool) "written index included" true any_k

let test_nested_region_boundary () =
  (* A CU never crosses a control-region boundary: the inner loop is one item
     of the outer region and is decomposed separately. *)
  let p =
    let open B in
    Helpers.prog_of_main ~globals:[ B.garray "a" 8; B.gscalar "s" 0 ]
      [ for_ "k" (i 0) (i 8)
          [ seti "a" (v "k") (v "k");
            for_ "j" (i 0) (i 8) [ set "s" (v "s" + "a".%[v "j"]) ] ] ]
  in
  let st, res = build p in
  let outer =
    List.find
      (fun (r : Static.region) -> r.Static.first_line = 2)
      (Static.loop_regions st)
  in
  let inner =
    List.find
      (fun (r : Static.region) -> r.Static.first_line <> 2)
      (Static.loop_regions st)
  in
  Alcotest.(check bool) "outer has CUs" true (TD.cus_of_region res outer.Static.id <> []);
  Alcotest.(check bool) "inner has its own CUs" true
    (TD.cus_of_region res inner.Static.id <> []);
  (* every line belongs to at most one CU within a single region partition *)
  let lines = Hashtbl.create 16 in
  List.iter
    (fun (cu : Cunit.Cu.t) ->
      Cunit.Cu.SS.iter
        (fun l ->
          Alcotest.(check bool) "no line in two CUs of one region" false
            (Hashtbl.mem lines l);
          Hashtbl.replace lines l ())
        cu.Cunit.Cu.lines)
    (TD.cus_of_region res outer.Static.id)

(* ---- CU graph ---- *)

let graph_of p =
  let st, res = build p in
  let r = Helpers.profile p in
  let l = loop_region st in
  let cus = TD.cus_of_region res l.Static.id in
  Cunit.Graph.build ~cus ~deps:r.Profiler.Serial.deps

let test_graph_edge_rules () =
  let g = graph_of Helpers.fig34 in
  (* single CU: only RAW self-edges may exist (Table 3.1) *)
  List.iter
    (fun (e : Cunit.Graph.edge) ->
      if e.Cunit.Graph.e_from = e.Cunit.Graph.e_to then
        Alcotest.(check bool) "self edges are RAW only" true
          (e.Cunit.Graph.e_type = Profiler.Dep.Raw))
    g.Cunit.Graph.edges;
  Alcotest.(check bool) "self RAW present (iterative feedback)" true
    (Cunit.Graph.self_raw g <> [])

let test_graph_no_init_edges () =
  let g = graph_of Helpers.fig34 in
  Alcotest.(check bool) "INIT never becomes an edge" true
    (List.for_all
       (fun (e : Cunit.Graph.edge) -> e.Cunit.Graph.e_type <> Profiler.Dep.Init)
       g.Cunit.Graph.edges)

let test_graph_dot () =
  let g = graph_of Helpers.fig34 in
  let dot = Cunit.Graph.to_dot g in
  Alcotest.(check bool) "dot output" true
    (Astring_contains.contains dot "digraph cu_graph")

(* ---- SCC / chains ---- *)

let test_scc () =
  (* 0 -> 1 -> 2 -> 0 cycle plus 3 -> 0 *)
  let adj = [| [ 1 ]; [ 2 ]; [ 0 ]; [ 0 ] |] in
  let r = Cunit.Scc.run adj in
  Alcotest.(check int) "two components" 2 r.Cunit.Scc.count;
  Alcotest.(check bool) "cycle in one component" true
    (r.Cunit.Scc.component.(0) = r.Cunit.Scc.component.(1)
    && r.Cunit.Scc.component.(1) = r.Cunit.Scc.component.(2));
  Alcotest.(check bool) "3 alone" true
    (r.Cunit.Scc.component.(3) <> r.Cunit.Scc.component.(0));
  let cadj = Cunit.Scc.condense adj r in
  Alcotest.(check int) "condensation has an edge" 1
    (List.length cadj.(r.Cunit.Scc.component.(3)))

(* ---- bottom-up ---- *)

let test_bottom_up () =
  let p =
    let open B in
    Helpers.prog_of_main ~globals:[ B.gscalar "x" 0; B.gscalar "y" 0 ]
      [ set "x" (i 1);         (* line 2 *)
        decl "t" (v "x");      (* line 3: reads x *)
        set "x" (i 2);         (* line 4: WAR with line 3 -> merge *)
        set "y" (v "t") ]      (* line 5 *)
  in
  let d = Cunit.Bottom_up.build_dynamic p in
  let groups_on line =
    Hashtbl.fold
      (fun op l acc ->
        if l = line then Hashtbl.find d.Cunit.Bottom_up.group_of_op op :: acc
        else acc)
      d.Cunit.Bottom_up.op_lines []
  in
  (* line 4's write of x merges with line 3's read through the
     anti-dependence *)
  Alcotest.(check bool) "WAR merges lines" true
    (List.exists (fun g -> List.mem g (groups_on 3)) (groups_on 4));
  Alcotest.(check bool) "RAW edges recorded" true
    (d.Cunit.Bottom_up.d_raw_edges <> [])

(* ---- re-convergence (§3.2.2) ---- *)

let test_reconvergence () =
  let p =
    let open B in
    Helpers.prog_of_main
      [ decl "a" (i 1);                                        (* 2 *)
        if_ (v "a" > i 0) [ set "a" (i 2) ] [ set "a" (i 3) ]; (* 3,4,5 *)
        set "a" (i 4);                                         (* 6 *)
        while_ (v "a" > i 0) [ set "a" (v "a" - i 1) ];        (* 7,8 *)
        set "a" (i 9) ]                                        (* 9 *)
  in
  let tbl = Cunit.Reconv.analyze p in
  let t = Hashtbl.find tbl "main" in
  Alcotest.(check (option int)) "if reconverges after both arms" (Some 6)
    (Cunit.Reconv.reconvergence_point t 3);
  Alcotest.(check (option int)) "loop reconverges at exit" (Some 9)
    (Cunit.Reconv.reconvergence_point t 7);
  let dep = Cunit.Reconv.control_dependent_lines t 3 in
  Alcotest.(check (list int)) "branch arms control-dependent" [ 4; 5 ] dep

let test_reconvergence_if_only () =
  (* the §1.2.2 example: S2 control-dependent on S1, S3 not *)
  let p =
    let open B in
    Helpers.prog_of_main
      [ decl "a" (i 1);                         (* 2 *)
        when_ (v "a" == i 1) [ set "a" (i 5) ]; (* 3, 4 *)
        set "a" (i 7) ]                         (* 5 *)
  in
  let tbl = Cunit.Reconv.analyze p in
  let t = Hashtbl.find tbl "main" in
  Alcotest.(check (option int)) "if without else" (Some 5)
    (Cunit.Reconv.reconvergence_point t 3);
  Alcotest.(check (list int)) "only the then-arm is control-dependent" [ 4 ]
    (Cunit.Reconv.control_dependent_lines t 3)

let test_weight_positive () =
  let _, res = build Helpers.fig34 in
  List.iter
    (fun (cu : Cunit.Cu.t) ->
      Alcotest.(check bool) "positive weight" true (cu.Cunit.Cu.weight > 0))
    res.TD.cus

let qcheck_partition_covers_items =
  let open QCheck in
  Test.make ~name:"top-down CUs partition each region's statements" ~count:80
    Helpers.Gen.arbitrary_program (fun p ->
      let st = Static.analyze p in
      let res = TD.build st in
      Array.to_list st.Static.regions
      |> List.for_all (fun (r : Static.region) ->
             let cus = TD.cus_of_region res r.Static.id in
             let covered = Hashtbl.create 16 in
             List.iter
               (fun (cu : Cunit.Cu.t) ->
                 Cunit.Cu.SS.iter
                   (fun l ->
                     if Hashtbl.mem covered l then raise Exit
                     else Hashtbl.replace covered l ())
                   cu.Cunit.Cu.lines)
               cus;
             (* every direct statement line of the region is covered *)
             List.for_all
               (fun (s : Ast.stmt) -> Hashtbl.mem covered (string_of_int s.Ast.line))
               r.Static.stmts))

let tests =
  [ Alcotest.test_case "Fig 3.4 single CU" `Quick test_fig34_single_cu;
    Alcotest.test_case "Fig 3.4b two CUs" `Quick test_fig34b_two_cus;
    Alcotest.test_case "params and ret (§3.2.5)" `Quick test_function_params_and_ret;
    Alcotest.test_case "loop index rule (§3.2.5)" `Quick test_loop_index_rule;
    Alcotest.test_case "region boundaries" `Quick test_nested_region_boundary;
    Alcotest.test_case "graph edge rules (Table 3.1)" `Quick test_graph_edge_rules;
    Alcotest.test_case "no INIT edges" `Quick test_graph_no_init_edges;
    Alcotest.test_case "dot rendering" `Quick test_graph_dot;
    Alcotest.test_case "Tarjan SCC" `Quick test_scc;
    Alcotest.test_case "bottom-up merging" `Quick test_bottom_up;
    Alcotest.test_case "re-convergence points" `Quick test_reconvergence;
    Alcotest.test_case "re-convergence if-only" `Quick test_reconvergence_if_only;
    Alcotest.test_case "CU weights" `Quick test_weight_positive;
    QCheck_alcotest.to_alcotest qcheck_partition_covers_items ]

(* ---- final property batch ---- *)

let qcheck_cu_sets_within_globals =
  let open QCheck in
  Test.make ~name:"CU read/write sets stay within the region's globals"
    ~count:60 Helpers.Gen.arbitrary_program (fun p ->
      let st = Static.analyze p in
      let res = TD.build st in
      Array.to_list st.Static.regions
      |> List.for_all (fun (r : Static.region) ->
             let gv = TD.construction_globals st r.Static.id in
             TD.cus_of_region res r.Static.id
             |> List.for_all (fun (cu : Cunit.Cu.t) ->
                    Cunit.Cu.SS.subset cu.Cunit.Cu.read_set gv
                    && Cunit.Cu.SS.subset cu.Cunit.Cu.write_set gv)))

let qcheck_graph_edges_reference_cus =
  let open QCheck in
  Test.make ~name:"CU graph edges always reference graph members" ~count:50
    Helpers.Gen.arbitrary_program (fun p ->
      let st = Static.analyze p in
      let res = TD.build st in
      let r = Helpers.profile p in
      let g =
        Cunit.Graph.build ~cus:res.TD.cus ~deps:r.Profiler.Serial.deps
      in
      List.for_all
        (fun (e : Cunit.Graph.edge) ->
          Hashtbl.mem g.Cunit.Graph.index_of e.Cunit.Graph.e_from
          && Hashtbl.mem g.Cunit.Graph.index_of e.Cunit.Graph.e_to)
        g.Cunit.Graph.edges)

let tests =
  tests
  @ [ QCheck_alcotest.to_alcotest qcheck_cu_sets_within_globals;
      QCheck_alcotest.to_alcotest qcheck_graph_edges_reference_cus ]
