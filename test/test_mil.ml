(* Tests for the MIL substrate: interpreter semantics, line numbering, static
   analysis (regions, scoping, summaries, reductions), threads and locks. *)

open Mil
module B = Builder

let run ?seed p = (Interp.run ?seed ~instrument:false p).Interp.result

let run_main ?globals ?seed body = run ?seed (Helpers.prog_of_main ?globals body)

let check_int msg expected got = Alcotest.(check int) msg expected got

(* ---- interpreter semantics ---- *)

let test_arith () =
  let open B in
  check_int "sum" 90 (run_main [ decl "s" (i 0);
    for_ "k" (i 0) (i 10) [ set "s" (v "s" + v "k" * i 2) ]; return (v "s") ]);
  (* (100 - 7) / 3 mod 11 = 9 *)
  check_int "sub/div/mod" 9
    (run_main [ return ((i 100 - i 7) / i 3 % i 11) ]);
  check_int "div by zero is 0" 0 (run_main [ return (i 5 / i 0) ]);
  check_int "min" 3 (run_main [ return (B.min_ (i 3) (i 9)) ]);
  check_int "max" 9 (run_main [ return (B.max_ (i 3) (i 9)) ]);
  check_int "neg" (-4) (run_main [ return (B.neg (i 4)) ]);
  check_int "not" 0 (run_main [ return (B.not_ (i 7)) ]);
  check_int "shift" 40 (run_main [ return (i 5 lsl i 3) ]);
  check_int "bitops" 1 (run_main [ return (i 5 land i 3) ])

let test_comparisons () =
  let open B in
  check_int "lt" 1 (run_main [ return (i 2 < i 3) ]);
  check_int "ge" 0 (run_main [ return (i 2 >= i 3) ]);
  check_int "eq" 1 (run_main [ return (i 2 == i 2) ]);
  check_int "ne" 0 (run_main [ return (i 2 != i 2) ]);
  check_int "and" 0 (run_main [ return (i 1 && i 0) ]);
  check_int "or" 1 (run_main [ return (i 1 || i 0) ])

let test_arrays () =
  let open B in
  check_int "array write/read" 42
    (run_main [ decl_arr "a" (i 10); seti "a" (i 3) (i 42); return ("a".%[i 3]) ]);
  check_int "global array" 7
    (run_main ~globals:[ B.garray "g" 4 ]
       [ seti "g" (i 2) (i 7); return ("g".%[i 2]) ]);
  check_int "len" 10 (run_main [ decl_arr "a" (i 10); return (len "a") ]);
  Alcotest.check_raises "oob read" (Interp.Runtime_error "index 10 out of bounds for a (len 10) at line 3")
    (fun () -> ignore (run_main [ decl_arr "a" (i 10); return ("a".%[i 10]) ]))

let test_control () =
  let open B in
  check_int "if true" 1
    (run_main [ if_ (i 1) [ return (i 1) ] [ return (i 2) ] ]);
  check_int "if false" 2
    (run_main [ if_ (i 0) [ return (i 1) ] [ return (i 2) ] ]);
  check_int "while countdown" 0
    (run_main [ decl "k" (i 5); while_ (v "k" > i 0) [ set "k" (v "k" - i 1) ];
                return (v "k") ]);
  check_int "break" 5
    (run_main
       [ decl "k" (i 0);
         while_ (i 1) [ set "k" (v "k" + i 1); when_ (v "k" == i 5) [ break_ ] ];
         return (v "k") ]);
  check_int "nested for" 100
    (run_main
       [ decl "c" (i 0);
         for_ "a" (i 0) (i 10) [ for_ "b" (i 0) (i 10) [ incr "c" ] ];
         return (v "c") ]);
  check_int "for with step" 5
    (run_main
       [ decl "c" (i 0);
         for_step "a" (i 0) (i 10) (i 2) [ incr "c" ];
         return (v "c") ])

let test_functions () =
  let open B in
  let p =
    B.number
      (B.program ~entry:"main" "t"
         [ func "add" ~params:[ "a"; "b" ] [ return (v "a" + v "b") ];
           func "twice" ~params:[ "x" ] [ return (call "add" [ v "x"; v "x" ]) ];
           func "main" [ return (call "twice" [ i 21 ]) ] ])
  in
  check_int "calls" 42 (run p);
  (* recursion *)
  let fib =
    B.number
      (B.program ~entry:"main" "t"
         [ func "fib" ~params:[ "n" ]
             [ when_ (v "n" < i 2) [ return (v "n") ];
               return (call "fib" [ v "n" - i 1 ] + call "fib" [ v "n" - i 2 ]) ];
           func "main" [ return (call "fib" [ i 10 ]) ] ])
  in
  check_int "recursion" 55 (run fib);
  (* array params are by reference *)
  let byref =
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.garray "g" 4 ]
         [ func "fill" ~arrays:[ "dst" ] [ seti "dst" (i 1) (i 9); return_unit ];
           func "main" [ call_ "fill" [ v "g" ]; return ("g".%[i 1]) ] ])
  in
  check_int "array by reference" 9 (run byref);
  (* scalar params are by value *)
  let byval =
    B.number
      (B.program ~entry:"main" "t"
         [ func "mut" ~params:[ "x" ] [ set "x" (i 0); return_unit ];
           func "main"
             [ decl "y" (i 5); call_ "mut" [ v "y" ]; return (v "y") ] ])
  in
  check_int "scalar by value" 5 (run byval)

let test_rand_determinism () =
  let p =
    let open B in
    Helpers.prog_of_main [ return (call "rand" [ i 1000 ]) ]
  in
  check_int "same seed, same value" (run ~seed:7 p) (run ~seed:7 p);
  let differs = run ~seed:1 p <> run ~seed:2 p || run ~seed:1 p <> run ~seed:3 p in
  Alcotest.(check bool) "different seeds usually differ" true differs

let test_par_threads () =
  let open B in
  (* Locked updates from 4 threads must all be observed. *)
  let p =
    Helpers.prog_of_main ~globals:[ B.gscalar "acc" 0 ]
      [ par
          (List.init 4 (fun _ ->
               [ lock "m"; set "acc" (v "acc" + i 1); unlock "m" ]));
        return (v "acc") ]
  in
  check_int "locked counter" 4 (run p);
  (* Par threads see a copy of the parent's local environment. *)
  let p2 =
    Helpers.prog_of_main ~globals:[ B.garray "out" 4 ]
      [ par (List.init 4 (fun t -> [ seti "out" (i t) (i (t *$ 10)) ]));
        return ("out".%[i 3]) ]
  in
  check_int "disjoint writes" 30 (run p2);
  (* Nested par joins correctly. *)
  let p3 =
    Helpers.prog_of_main ~globals:[ B.gscalar "n" 0 ]
      [ par
          [ [ par [ [ atomic_set "n" (v "n" + i 1) ];
                    [ atomic_set "n" (v "n" + i 1) ] ] ];
            [ atomic_set "n" (v "n" + i 1) ] ];
        return (v "n") ]
  in
  check_int "nested par" 3 (run p3)

let test_par_schedules_vary () =
  let open B in
  (* Without locks, final value of a racy counter depends on the schedule;
     with our statement-granularity fibers it still must count each locked
     region exactly once.  Run several seeds to exercise the scheduler. *)
  let p seed =
    run ~seed
      (Helpers.prog_of_main ~globals:[ B.gscalar "acc" 0 ]
         [ par
             (List.init 3 (fun _ ->
                  [ lock "m";
                    decl "t" (v "acc");
                    set "acc" (v "t" + i 1);
                    unlock "m" ]));
           return (v "acc") ])
  in
  List.iter (fun s -> check_int "locked increments" 3 (p s)) [ 1; 2; 3; 4; 5 ]

let test_barriers () =
  (* Each thread writes its slot, all wait, then each reads its neighbour's
     slot — correct under every schedule only because of the barrier. *)
  let p =
    let open B in
    Helpers.prog_of_main ~globals:[ B.garray "buf" 4; B.garray "out" 4 ]
      [ par
          (List.init 4 (fun t ->
               [ seti "buf" (i t) (i ((t *$ 10) +$ 10));
                 barrier "phase";
                 seti "out" (i t) ("buf".%[i ((t +$ 1) mod 4)]) ]));
        return
          ("out".%[i 0] + "out".%[i 1] + "out".%[i 2] + "out".%[i 3]) ]
  in
  List.iter
    (fun seed -> check_int "barrier handoff" 100 (run ~seed p))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* barriers are reusable across loop iterations *)
  let p2 =
    let open B in
    Helpers.prog_of_main ~globals:[ B.gscalar "acc" 0 ]
      [ par
          (List.init 3 (fun _ ->
               [ for_ "s" (i 0) (i 4)
                   [ atomic_set "acc" (v "acc" + i 1); barrier "tick" ] ]));
        return (v "acc") ]
  in
  List.iter (fun seed -> check_int "reused barrier" 12 (run ~seed p2)) [ 1; 2; 3 ]

let test_scope_reuse () =
  (* Addresses of block locals are recycled across iterations. *)
  let deallocs = ref 0 in
  let p =
    let open B in
    Helpers.prog_of_main
      [ for_ "k" (i 0) (i 5) [ decl "tmp" (v "k"); set "tmp" (v "tmp" + i 1) ] ]
  in
  let _ =
    Interp.run
      ~emit:(function
        | Trace.Event.Dealloc _ -> deallocs := Stdlib.( + ) !deallocs 1
        | _ -> ())
      p
  in
  Alcotest.(check bool) "dealloc events fired" true (!deallocs >= 5)

(* Leaving a block frees its locals last declared first, so each iteration
   reuses the same addresses, and the dealloc lists them in declaration
   order. A local a [break] leaves bound is freed when the block holding
   the loop exits. *)
let test_scope_exit_order () =
  let p =
    let open B in
    Helpers.prog_of_main
      [ for_ "k" (i 0) (i 3) [ decl "a" (v "k"); decl "b" (v "k") ];
        when_ (i 1) [ while_ (i 1) [ decl "t" (i 1); break_ ] ];
        return (i 0) ]
  in
  let deallocs = ref [] in
  let _ =
    Interp.run
      ~emit:(function
        | Trace.Event.Dealloc { addrs } -> deallocs := addrs :: !deallocs
        | _ -> ())
      p
  in
  match List.rev !deallocs with
  | ([ (a, 1, "a"); (b, 1, "b") ] as first) :: second :: third :: rest ->
      Alcotest.(check bool) "distinct cells" true (a <> b);
      Alcotest.(check bool) "same cells every iteration" true
        (second = first && third = first);
      Alcotest.(check (list (list string)))
        "index, then the escaped local at the enclosing exit"
        [ [ "k" ]; [ "t" ] ]
        (List.map (List.map (fun (_, _, x) -> x)) rest)
  | _ -> Alcotest.fail "expected the loop body's dealloc first"

(* ---- line numbering ---- *)

let test_numbering () =
  let p = Helpers.fig27 in
  let lines = ref [] in
  let rec collect (s : Ast.stmt) =
    lines := s.Ast.line :: !lines;
    match s.Ast.node with
    | Ast.If (_, t, e) -> List.iter collect (t @ e)
    | Ast.While (_, b) -> List.iter collect b
    | Ast.For { body; _ } -> List.iter collect body
    | Ast.Par bs -> List.iter collect (List.concat bs)
    | _ -> ()
  in
  List.iter (fun f -> List.iter collect f.Ast.body) p.Ast.funcs;
  let sorted = List.sort_uniq compare !lines in
  Alcotest.(check int) "unique lines" (List.length !lines) (List.length sorted);
  Alcotest.(check bool) "lines positive" true (List.for_all (fun l -> l > 0) sorted)

(* ---- static analysis ---- *)

let test_regions () =
  let st = Static.analyze Helpers.fig27 in
  let loops = Static.loop_regions st in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check bool) "loop spans its body" true
    (l.Static.last_line > l.Static.first_line)

let test_global_local () =
  let open B in
  let p =
    Helpers.prog_of_main ~globals:[ B.gscalar "g" 0 ]
      [ decl "outer" (i 1);
        for_ "k" (i 0) (i 3)
          [ decl "inner" (v "outer");
            set "g" (v "g" + v "inner" + v "k") ] ]
  in
  let st = Static.analyze p in
  let l = List.hd (Static.loop_regions st) in
  let gv = Static.global_vars st l.Static.id in
  Alcotest.(check bool) "outer is global to loop" true (Static.SS.mem "outer" gv);
  Alcotest.(check bool) "g is global to loop" true (Static.SS.mem "g" gv);
  Alcotest.(check bool) "inner is local to loop" false (Static.SS.mem "inner" gv);
  Alcotest.(check bool) "index not global (not written in body)" false
    (Static.SS.mem "k" gv)

let test_index_written () =
  let open B in
  let p =
    Helpers.prog_of_main
      [ for_ "k" (i 0) (i 10) [ set "k" (v "k" + i 1) ] ]
  in
  let st = Static.analyze p in
  let l = List.hd (Static.loop_regions st) in
  Alcotest.(check bool) "index written in body" true l.Static.index_written_in_body

let test_reductions () =
  let open B in
  let red s = Static.reduction_of_stmt s <> None in
  Alcotest.(check bool) "x = x + e" true (red (set "x" (v "x" + i 1)));
  Alcotest.(check bool) "x = e + x" true (red (set "x" (i 1 + v "x")));
  Alcotest.(check bool) "x = min(x,e)" true (red (set "x" (B.min_ (v "x") (i 3))));
  Alcotest.(check bool) "a[i] += e" true
    (red (seti "a" (v "i") ("a".%[v "i"] + i 1)));
  Alcotest.(check bool) "x = x - e is NOT a reduction" false
    (red (set "x" (v "x" - i 1)));
  Alcotest.(check bool) "recurrence a[i] = a[i] + a[i-1] is NOT" false
    (red (seti "a" (v "i") ("a".%[v "i"] + "a".%[v "i" - i 1])));
  Alcotest.(check bool) "x = y + 1 is NOT" false (red (set "x" (v "y" + i 1)))

let test_summaries () =
  let open B in
  let p =
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.gscalar "g" 0; B.garray "arr" 4 ]
         [ func "writer" ~arrays:[ "dst" ]
             [ seti "dst" (i 0) (i 1); set "g" (v "g" + i 1); return_unit ];
           func "caller" [ call_ "writer" [ v "arr" ]; return_unit ];
           func "main" [ call_ "caller" []; return_unit ] ])
  in
  let st = Static.analyze p in
  let sum f = Option.get (Static.summary st f) in
  Alcotest.(check bool) "writer writes g" true
    (Static.SS.mem "g" (sum "writer").Static.sum_gwritten);
  Alcotest.(check bool) "writer writes its array param" true
    (Static.SS.mem "dst" (sum "writer").Static.sum_pwritten);
  Alcotest.(check bool) "caller transitively writes arr" true
    (Static.SS.mem "arr" (sum "caller").Static.sum_gwritten);
  Alcotest.(check bool) "caller transitively reads g" true
    (Static.SS.mem "g" (sum "caller").Static.sum_gread)

let test_reduction_only_vars () =
  let open B in
  let p =
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.gscalar "cnt" 0; B.gscalar "z" 0 ]
         [ func "bump" [ set "cnt" (v "cnt" + i 1); return_unit ];
           func "main"
             [ for_ "k" (i 0) (i 3) [ call_ "bump" []; set "z" (v "k") ] ] ])
  in
  let g = Static.reduction_only_vars p in
  Alcotest.(check bool) "cnt is reduction-only" true (Hashtbl.mem g "cnt");
  Alcotest.(check bool) "z (plain writes in loop) is not" false (Hashtbl.mem g "z")

let test_cond_vars () =
  let open B in
  let p =
    Helpers.prog_of_main
      [ decl "x" (i 0); while_ (v "x" < i 5) [ set "x" (v "x" + i 1) ] ]
  in
  let st = Static.analyze p in
  let l = List.hd (Static.loop_regions st) in
  match l.Static.kind with
  | Static.Rloop { cond_vars; index } ->
      Alcotest.(check bool) "while has no index" true (index = None);
      Alcotest.(check bool) "x in cond vars" true (Static.SS.mem "x" cond_vars)
  | _ -> Alcotest.fail "expected loop region"

let test_pretty_roundtrip_lines () =
  let s = Pretty.render_program Helpers.fig27 in
  Alcotest.(check bool) "mentions while" true
    (Astring_contains.contains s "while");
  Alcotest.(check bool) "numbered lines" true (Astring_contains.contains s "   1  ")

(* QCheck: evaluation matches a reference big-step evaluator for pure
   expressions over known variable values. *)
let qcheck_expr_eval =
  let open QCheck in
  Test.make ~name:"interp evaluates random straight-line programs safely"
    ~count:150 Helpers.Gen.arbitrary_program (fun p ->
      (* memory-safety by construction: just require no exception and
         determinism *)
      let r1 = Interp.run ~seed:11 ~instrument:false p in
      let r2 = Interp.run ~seed:11 ~instrument:false p in
      r1.Interp.result = r2.Interp.result
      && r1.Interp.r_stats.Interp.reads = r2.Interp.r_stats.Interp.reads)

let qcheck_numbering =
  let open QCheck in
  Test.make ~name:"line numbering is dense pre-order" ~count:100
    Helpers.Gen.arbitrary_program (fun p ->
      let max_line = ref 0 and count = ref 0 in
      let rec collect (s : Ast.stmt) =
        incr count;
        if s.Ast.line > !max_line then max_line := s.Ast.line;
        match s.Ast.node with
        | Ast.If (_, t, e) -> List.iter collect (t @ e)
        | Ast.While (_, b) -> List.iter collect b
        | Ast.For { body; _ } -> List.iter collect body
        | Ast.Par bs -> List.iter collect (List.concat bs)
        | _ -> ()
      in
      List.iter (fun f -> List.iter collect f.Ast.body) p.Ast.funcs;
      (* lines = statements + one header per function *)
      !max_line = !count + List.length p.Ast.funcs)

let tests =
  [ Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "control flow" `Quick test_control;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "rand determinism" `Quick test_rand_determinism;
    Alcotest.test_case "par + locks" `Quick test_par_threads;
    Alcotest.test_case "barriers" `Quick test_barriers;
    Alcotest.test_case "scheduler seeds" `Quick test_par_schedules_vary;
    Alcotest.test_case "scope reuse + dealloc" `Quick test_scope_reuse;
    Alcotest.test_case "scope exit: stack order, break escapes" `Quick
      test_scope_exit_order;
    Alcotest.test_case "line numbering" `Quick test_numbering;
    Alcotest.test_case "regions" `Quick test_regions;
    Alcotest.test_case "global vs local vars" `Quick test_global_local;
    Alcotest.test_case "index written in body" `Quick test_index_written;
    Alcotest.test_case "reduction recognition" `Quick test_reductions;
    Alcotest.test_case "interprocedural summaries" `Quick test_summaries;
    Alcotest.test_case "reduction-only vars" `Quick test_reduction_only_vars;
    Alcotest.test_case "loop condition vars" `Quick test_cond_vars;
    Alcotest.test_case "pretty printer" `Quick test_pretty_roundtrip_lines;
    QCheck_alcotest.to_alcotest qcheck_expr_eval;
    QCheck_alcotest.to_alcotest qcheck_numbering ]

(* ---- additional edge cases ---- *)

let test_runtime_errors () =
  let open B in
  Alcotest.check_raises "unbound variable"
    (Interp.Runtime_error "unbound variable nope") (fun () ->
      ignore (run (Helpers.prog_of_main [ set "nope" (i 1) ])));
  Alcotest.check_raises "unknown function"
    (Interp.Runtime_error "unknown function nope (line 2)") (fun () ->
      ignore (run (Helpers.prog_of_main [ call_ "nope" [] ])));
  Alcotest.check_raises "scalar used as array"
    (Interp.Runtime_error "x is not an array (line 3)") (fun () ->
      ignore (run (Helpers.prog_of_main [ decl "x" (i 1); seti "x" (i 0) (i 1) ])))

let test_recursive_summary () =
  (* a self-recursive function's summary must reach its fixpoint *)
  let p =
    let open B in
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.gscalar "g" 0 ]
         [ B.func "walk" ~params:[ "n" ]
             [ when_ (v "n" <= i 0) [ return_unit ];
               set "g" (v "g" + i 1);
               call_ "walk" [ v "n" - i 1 ];
               return_unit ];
           B.func "main" [ call_ "walk" [ i 5 ] ] ])
  in
  let st = Static.analyze p in
  let s = Option.get (Static.summary st "walk") in
  Alcotest.(check bool) "recursive function writes g" true
    (Static.SS.mem "g" s.Static.sum_gwritten);
  Alcotest.(check bool) "and reads it" true (Static.SS.mem "g" s.Static.sum_gread)

(* A call inside an assignment target's index is part of the statement's
   effects: [h] writes [g] through [b[f()] = 2], so its summary, its
   caller's region and its caller's top-down item all see the write. *)
let test_summary_target_index_call () =
  let p =
    let open B in
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.gscalar "g" 0 ]
         [ B.func "f" [ set "g" (v "g" + i 1); return (v "g") ];
           B.func "h"
             [ decl_arr "b" (i 4); seti "b" (call "f" []) (i 2); return (i 0) ];
           B.func "main" [ decl "x" (call "h" []); return (v "x") ] ])
  in
  let st = Static.analyze p in
  let h = Option.get (Static.summary st "h") in
  Alcotest.(check bool) "h reads g" true (Static.SS.mem "g" h.Static.sum_gread);
  Alcotest.(check bool) "h writes g" true (Static.SS.mem "g" h.Static.sum_gwritten);
  let main = Static.region st (Static.func_region st "main") in
  Alcotest.(check bool) "main's region writes g" true
    (Static.SS.mem "g" main.Static.globals_written);
  let fx = Static.effects st (List.hd main.Static.stmts) in
  Alcotest.(check bool) "var x = h() writes g" true
    (Static.SS.mem "g" fx.Static.fx_writes);
  Alcotest.(check (option string)) "and binds x apart" (Some "x") fx.Static.fx_binds;
  match
    Cunit.Top_down.items_of_region st main.Static.id (Static.SS.singleton "g")
  with
  | item :: _ ->
      Alcotest.(check bool) "its top-down item writes g" true
        (Static.SS.mem "g" item.Cunit.Top_down.it_writes)
  | [] -> Alcotest.fail "main has no items"

let test_free_statement () =
  let p =
    let open B in
    Helpers.prog_of_main
      [ decl_arr "a" (i 8); seti "a" (i 0) (i 7); free "a"; return (i 1) ]
  in
  check_int "free is legal" 1 (run p);
  (* lifetime event fires for the freed range *)
  let freed = ref 0 in
  let _ =
    Interp.run
      ~emit:(function
        | Trace.Event.Dealloc { addrs } ->
            List.iter (fun (_, len, _) -> freed := !freed + len) addrs
        | _ -> ())
      p
  in
  Alcotest.(check bool) "range deallocated" true (!freed >= 8)

let test_pretty_exprs () =
  let open B in
  Alcotest.(check string) "binop" "(1 + 2)" (Pretty.expr_to_string (i 1 + i 2));
  Alcotest.(check string) "min" "min(1, 2)"
    (Pretty.expr_to_string (B.min_ (i 1) (i 2)));
  Alcotest.(check string) "index" "a[3]" (Pretty.expr_to_string ("a".%[i 3]));
  Alcotest.(check string) "call" "f(1)" (Pretty.expr_to_string (call "f" [ i 1 ]))

(* Golden print of the parallel constructs the transformer emits: par
   blocks, lock/unlock, barrier and atomic assignment. The exact rendering
   is load-bearing for `discopop parallelize --emit`. *)
let test_pretty_parallel () =
  let open B in
  let p =
    B.number
      (B.program ~globals:[ B.gscalar "s" 0 ] ~entry:"main" "pp"
         [ func "main"
             [ par
                 [ [ lock "m"; set "s" (v "s" + i 1); unlock "m" ];
                   [ atomic_set "s" (v "s" + i 2) ] ];
               barrier "b";
               return (v "s") ] ])
  in
  let expected =
    "      global s = 0\n"
    ^ "   1  func main() {\n"
    ^ "   2    par {\n"
    ^ "          thread 0:\n"
    ^ "   3        lock(m)\n"
    ^ "   4        s = (s + 1)\n"
    ^ "   5        unlock(m)\n"
    ^ "          thread 1:\n"
    ^ "   6        atomic s = (s + 2)\n"
    ^ "        }\n"
    ^ "   7    barrier(b)\n"
    ^ "   8    return s\n"
    ^ "      }\n"
  in
  Alcotest.(check string) "parallel constructs render exactly" expected
    (Pretty.render_program p)

(* ---- MIL text parser (lib/mil/parse) ---- *)

(* Every bundled workload's rendering must parse, and parse∘render must be
   idempotent: the first parse may renumber programs whose builders share
   statement values, but from then on text -> AST -> text is a fixpoint.
   This is the contract `discopop serve` relies on for cache-key stability
   across client round-trips. *)
let test_parse_registry_roundtrip () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let name = w.Workloads.Registry.name in
      let text =
        Pretty.render_program (Workloads.Registry.program w)
      in
      match Parse.program ~name text with
      | Error msg -> Alcotest.failf "%s: parse failed: %s" name msg
      | Ok p1 -> (
          let r1 = Pretty.render_program p1 in
          match Parse.program ~name r1 with
          | Error msg -> Alcotest.failf "%s: reparse failed: %s" name msg
          | Ok p2 ->
              Alcotest.(check string)
                (name ^ ": parse∘render is idempotent") r1
                (Pretty.render_program p2)))
    Workloads.Catalog.all

(* The parsed program must also behave like the original: same entry result
   on the (small, fast) textbook suite. *)
let test_parse_semantics () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let name = w.Workloads.Registry.name in
      let p = Workloads.Registry.program w in
      match Parse.program ~name (Pretty.render_program p) with
      | Error msg -> Alcotest.failf "%s: parse failed: %s" name msg
      | Ok p1 -> check_int (name ^ ": same result") (run p) (run p1))
    Workloads.Textbook.all

let test_parse_hand_written () =
  let parse_run src =
    match Parse.program src with
    | Error msg -> Alcotest.failf "parse failed: %s" msg
    | Ok p -> run p
  in
  (* precedence: * binds tighter than +, comparisons tighter than && *)
  check_int "precedence" 7 (parse_run "func main() {\n  return 1 + 2 * 3\n}\n");
  check_int "parens" 9 (parse_run "func main() {\n  return (1 + 2) * 3\n}\n");
  check_int "comparison chain" 1
    (parse_run "func main() {\n  return 1 < 2 && 3 > 2\n}\n");
  (* comments, blank lines, for-loop sugar *)
  check_int "comments and sugar" 45
    (parse_run
       ("# leading comment\n"
       ^ "func main() {\n"
       ^ "  var s = 0   // accumulator\n"
       ^ "  for i = 0; i < 10; i++ {\n"
       ^ "    s += i\n"
       ^ "  }\n"
       ^ "  return s\n"
       ^ "}\n"));
  (* len used as an ordinary variable (histo_vis does this) *)
  check_int "len as a variable" 4
    (parse_run "func main() {\n  var len = 4\n  return len\n}\n")

let test_parse_errors () =
  let fails src =
    match Parse.program src with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "garbage" true (fails "this is not MIL");
  Alcotest.(check bool) "unclosed block" true
    (fails "func main() {\n  return 1\n");
  Alcotest.(check bool) "empty input" true (fails "");
  Alcotest.(check bool) "bad expression" true
    (fails "func main() {\n  return 1 +\n}\n")

(* ---- cooperative cancellation ---- *)

let test_interp_cancel () =
  (* >2048 statements so the poll fires: 1000 iterations x 3 stmts each *)
  let p =
    let open B in
    Helpers.prog_of_main
      [ decl "s" (i 0);
        for_ "k" (i 0) (i 5000) [ set "s" (v "s" + v "k") ];
        return (v "s") ]
  in
  Alcotest.check_raises "cancelled run raises" Interp.Cancelled (fun () ->
      ignore (Interp.run ~cancelled:(fun () -> true) p));
  let polls = Atomic.make 0 in
  let r =
    Interp.run
      ~cancelled:(fun () -> Atomic.incr polls; false)
      p
  in
  check_int "uncancelled run completes" 12497500 r.Interp.result;
  Alcotest.(check bool) "poll fired at least once" true (Atomic.get polls >= 1)

(* ---- the specialised lowering ---- *)

let all_binops =
  Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or; Band; Bor;
        Bxor; Shl; Shr; Min; Max ]

(* Both evaluators' final globals. *)
let both_backends p =
  ((Interp.run ~instrument:false p).Interp.final_globals,
   (Par_eval.run p).Par_eval.final_globals)

(* [x op y] and [x op b] into [out[0..1]]; then, at [k] = 2, 4, 6, 8,
   whether [If] and [While] take a branch on the first, the second, and
   the two negated. *)
let binop_prog op a b =
  let open B in
  let e rhs = Ast.Bin (op, v "x", rhs) in
  let branch k c =
    [ if_ c [ seti "out" (i k) (i 1) ] [ seti "out" (i k) (i 0) ];
      while_ c [ seti "out" (i (Stdlib.( + ) k 1)) (i 1); break_ ] ]
  in
  Helpers.prog_of_main ~globals:[ B.garray "out" 10 ]
    ([ decl "x" (i a); decl "y" (i b);
       seti "out" (i 0) (e (v "y"));
       seti "out" (i 1) (e (Ast.Int b)) ]
    @ branch 2 (e (v "y"))
    @ branch 4 (e (Ast.Int b))
    @ branch 6 (not_ (e (v "y")))
    @ branch 8 (not_ (e (Ast.Int b))))

(* Every operator, over a variable and over a constant right operand, as a
   value and as an [If] and a [While] condition, bare and under [Not],
   equals [Compile.apply_binop]. *)
let qcheck_binops =
  let open QCheck in
  let operand =
    Gen.(
      oneof
        [ int_range (-6) 6;
          oneofl [ max_int; min_int; max_int - 1; min_int + 1; 63; 64; -64 ];
          int ])
  in
  let case = Gen.(triple (oneofl all_binops) operand operand) in
  let print (op, a, b) =
    Pretty.expr_to_string (Ast.Bin (op, Ast.Int a, Ast.Int b))
  in
  Test.make ~name:"specialised operators equal apply_binop" ~count:400
    (make ~print case) (fun (op, a, b) ->
      let r = Compile.apply_binop op a b in
      let t = Bool.to_int (Compile.truthy r) in
      let f = 1 - t in
      let want = [ ("out", [| r; r; t; t; t; t; f; f; f; f |]) ] in
      let seq, par = both_backends (binop_prog op a b) in
      seq = want && par = want)

let test_left_operand_first () =
  let open B in
  let p =
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.gscalar "n" 0 ]
         [ func "next" [ set "n" (v "n" + i 1); return (v "n") ];
           func "main"
             [ decl "d" (call "next" [] - call "next" []);
               when_ (call "next" [] < call "next" []) [ set "d" (v "d" * i 10) ];
               return (v "d") ] ])
  in
  check_int "left operand first, as a value and as a condition" (-10) (run p)

(* A freed local that shadows a global leaves its slot unbound: reads and
   assignments after the free reach the global. *)
let test_freed_local_reaches_global () =
  let open B in
  let p =
    Helpers.prog_of_main ~globals:[ B.gscalar "g" 5; B.garray "a" 3 ]
      [ decl "g" (i 10); decl_arr "a" (i 3); seti "a" (i 1) (i 4);
        free "g"; free "a";
        decl "r" (v "g");
        set "g" (v "r" + i 1);
        seti "a" (i 1) ("a".%[i 1] + v "g");
        return ((v "g" * i 100) + v "r") ]
  in
  check_int "the global is read after the free" 605 (run p);
  let seq, par = both_backends p in
  let want = [ ("g", [| 6 |]); ("a", [| 0; 6; 0 |]) ] in
  Alcotest.(check (list (pair string (array int)))) "Interp's globals" want seq;
  Alcotest.(check (list (pair string (array int)))) "Par_eval's globals" want par

let raises_error msg p =
  Alcotest.check_raises msg (Compile.Runtime_error msg) (fun () ->
      ignore (run p));
  Alcotest.check_raises ("Par_eval: " ^ msg) (Compile.Runtime_error msg)
    (fun () -> ignore (Par_eval.run p))

(* Out-of-bounds reads and writes on a global array, a local array and an
   array parameter. *)
let test_out_of_bounds () =
  let open B in
  let main body = Helpers.prog_of_main ~globals:[ B.garray "g" 4 ] body in
  raises_error "index 4 out of bounds for g (len 4) at line 2"
    (main [ return ("g".%[i 4]) ]);
  raises_error "index -1 out of bounds for g (len 4) at line 2"
    (main [ seti "g" (i (-1)) (i 1) ]);
  raises_error "index 3 out of bounds for a (len 3) at line 3"
    (main [ decl_arr "a" (i 3); return ("a".%[i 3]) ]);
  raises_error "index -2 out of bounds for a (len 3) at line 3"
    (main [ decl_arr "a" (i 3); seti "a" (i (-2)) (i 1) ]);
  let param body =
    B.number
      (B.program ~entry:"main" "t" ~globals:[ B.garray "g" 4 ]
         [ func "f" ~arrays:[ "p" ] body;
           func "main" [ call_ "f" [ v "g" ]; return (i 0) ] ])
  in
  raises_error "index 9 out of bounds for p (len 4) at line 2"
    (param [ return ("p".%[i 9]) ]);
  raises_error "index 4 out of bounds for p (len 4) at line 2"
    (param [ seti "p" (i 4) (i 1) ])

(* Assigning to an array name and indexing a scalar. *)
let test_kind_errors () =
  let open B in
  let main body =
    Helpers.prog_of_main ~globals:[ B.gscalar "s" 1; B.garray "g" 2 ] body
  in
  raises_error "cannot assign to array g (line 2)" (main [ set "g" (i 1) ]);
  raises_error "cannot assign to array a (line 3)"
    (main [ decl_arr "a" (i 2); set "a" (i 1) ]);
  raises_error "s is not an array (line 2)" (main [ return ("s".%[i 0]) ]);
  raises_error "s is not an array (line 2)" (main [ seti "s" (i 0) (i 1) ]);
  raises_error "x is not an array (line 3)"
    (main [ decl "x" (i 1); return ("x".%[i 0]) ]);
  raises_error "s is not an array (line 2)" (main [ return (len "s") ])

(* Recursion with scalar and array parameters, a [return] inside a loop,
   and a [Par] arm that returns: both evaluators agree. *)
let test_calls_and_returns () =
  let open B in
  let p =
    B.number
      (B.program ~entry:"main" "t"
         ~globals:[ B.garray "out" 3; B.gscalar "calls" 0 ]
         [ func "walk" ~params:[ "n"; "w" ] ~arrays:[ "a" ]
             [ set "calls" (v "calls" + i 1);
               when_ (v "n" <= i 0) [ return (v "w") ];
               for_ "k" (i 0) (i 10)
                 [ seti "a" (v "k" % i 4) ("a".%[v "k" % i 4] + v "n");
                   when_ (v "k" == v "n")
                     [ return (v "k" + call "walk" [ v "n" - i 1; v "w" * i 2; v "a" ]) ] ];
               return (i 0) ];
           func "main"
             [ decl_arr "loc" (i 4);
               decl "r" (call "walk" [ i 6; i 1; v "loc" ]);
               par
                 [ [ seti "out" (i 0) (v "r"); return (i 7); seti "out" (i 0) (i 0) ];
                   [ seti "out" (i 1) (call "walk" [ i 3; i 5; v "loc" ]) ] ];
               seti "out" (i 2) ("loc".%[i 0] + "loc".%[i 3]);
               return (v "r") ] ])
  in
  let r = Interp.run ~instrument:false p and q = Par_eval.run p in
  check_int "Interp's result" 85 r.Interp.result;
  check_int "Par_eval's result" 85 q.Par_eval.result;
  let want = [ ("out", [| 85; 46; 63 |]); ("calls", [| 11 |]) ] in
  Alcotest.(check (list (pair string (array int)))) "Interp's globals" want
    r.Interp.final_globals;
  Alcotest.(check (list (pair string (array int)))) "Par_eval's globals" want
    q.Par_eval.final_globals

let tests =
  tests
  @ [ Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
      Alcotest.test_case "recursive summary fixpoint" `Quick test_recursive_summary;
      Alcotest.test_case "summary sees calls in target indices" `Quick
        test_summary_target_index_call;
      Alcotest.test_case "free statement" `Quick test_free_statement;
      Alcotest.test_case "pretty expressions" `Quick test_pretty_exprs;
      Alcotest.test_case "pretty parallel constructs" `Quick test_pretty_parallel;
      Alcotest.test_case "parse: registry round-trip" `Quick
        test_parse_registry_roundtrip;
      Alcotest.test_case "parse: semantics preserved" `Quick test_parse_semantics;
      Alcotest.test_case "parse: hand-written input" `Quick test_parse_hand_written;
      Alcotest.test_case "parse: errors" `Quick test_parse_errors;
      Alcotest.test_case "interp: cooperative cancel" `Quick test_interp_cancel;
      QCheck_alcotest.to_alcotest qcheck_binops;
      Alcotest.test_case "left operand first" `Quick test_left_operand_first;
      Alcotest.test_case "freed local reaches the global" `Quick
        test_freed_local_reaches_global;
      Alcotest.test_case "out-of-bounds reads and writes" `Quick
        test_out_of_bounds;
      Alcotest.test_case "array assigned, scalar indexed" `Quick
        test_kind_errors;
      Alcotest.test_case "calls, early returns, a returning arm" `Quick
        test_calls_and_returns ]
