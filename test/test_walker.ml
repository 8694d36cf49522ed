(* Tests for the MIL walker (the tree's shape in [Ast]) and the readers and
   rewriters built on it: every syntactic reader must see every call and
   access position — conditions, loop bounds and assignment-target indices
   included — and statement replacement must reach every block, [par] arms
   included. *)

open Mil
module B = Builder

let prog_of_funcs ?(globals = []) funcs =
  B.number (B.program ~globals ~entry:"main" "walk" funcs)

(* A function of each shape a call can hide in. *)
let calls_in_positions =
  let open B in
  prog_of_funcs ~globals:[ garray "a" 8 ]
    [ func "f" ~params:[ "n" ] [ return (v "n") ];
      func "main"
        [ (* line 4 *) if_ (call "f" [ i 1 - i 1 ] > i 0) [ set "x" (i 1) ] [];
          (* line 6 *) for_ "i" (i 0) (call "f" [ i 3 ]) [ decl "y" (v "i") ];
          (* line 8 *) seti "a" (call "f" [ i 2 ]) (i 0);
          (* line 9 *) while_ (call "f" [ i 0 ] > i 0) [ call_ "print" [ i 1 ] ];
          return (i 0) ] ]

let test_pre_order () =
  let p = calls_in_positions in
  let main = Ast.find_func p "main" in
  let lines = Ast.fold_block (fun acc (s : Ast.stmt) -> s.line :: acc) [] main.body in
  Alcotest.(check (list int)) "statements in pre-order" [ 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.rev lines);
  Alcotest.(check int) "count" 8 (Rewrite.count_stmts main.body);
  let copy = Rewrite.copy_block main.body in
  Alcotest.(check bool) "deep copy is equal" true (copy = main.body);
  Alcotest.(check bool) "deep copy shares no statement" false
    (Ast.exists_block
       (fun s -> Ast.exists_block (fun t -> t == s) main.body)
       copy)

let test_call_sites () =
  let p = calls_in_positions in
  let main = Ast.find_func p "main" in
  Alcotest.(check (list int)) "condition, bound, target index, loop condition"
    [ 4; 6; 8; 9 ]
    (Discovery.Tasks.call_sites_to "f" main.body);
  Alcotest.(check (list int)) "builtin call statement" [ 10 ]
    (Discovery.Tasks.call_sites_to "print" main.body)

let test_stmt_has_call () =
  let p = calls_in_positions in
  let main = Ast.find_func p "main" in
  List.iter
    (fun (s : Ast.stmt) ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d has a call" s.line)
        (s.line <> 11)
        (Cunit.Top_down.stmt_has_call s))
    main.body;
  let target_index =
    List.find (fun (s : Ast.stmt) -> s.line = 8) main.body
  in
  Alcotest.(check bool) "a[f(2)] = 0 found by the transform probe" true
    (List.mem "f" (Rewrite.reachable_calls p [ target_index ]))

(* A call only in an assignment target's index still makes the statement
   a recursive call site. *)
let test_call_site_target_index () =
  let open B in
  let p =
    prog_of_funcs ~globals:[ garray "a" 8 ]
      [ func "f" ~params:[ "n" ]
          [ when_ (v "n" > i 0) [ seti "a" (call "f" [ v "n" - i 1 ]) (i 0) ];
            return (v "n") ];
        func "main" [ call_ "f" [ i 3 ] ] ]
  in
  let f = Ast.find_func p "f" in
  Alcotest.(check (list int)) "a[f(n-1)] = 0" [ 3 ]
    (Discovery.Tasks.call_sites_to "f" f.body)

(* The same replacement routine reaches a segment inside a [par] arm. *)
let test_replace_in_par_arm () =
  let open B in
  let p =
    prog_of_funcs ~globals:[ gscalar "x" 0; gscalar "y" 0 ]
      [ func "main"
          [ par
              [ [ set "x" (i 1) ];
                [ set "y" (i 2); set "y" (v "y" + i 1); set "x" (v "x") ] ];
            return (v "y") ] ]
  in
  let seg = [ 4; 5 ] in
  let replaced = ref [] in
  match
    Rewrite.replace_lines p ~lines:seg ~f:(fun stmts ->
        replaced := List.map (fun (s : Ast.stmt) -> s.line) stmts;
        [ B.set "y" (i 3) ])
  with
  | None -> Alcotest.fail "segment in a par arm not found"
  | Some p' ->
      Alcotest.(check (list int)) "the segment handed to f" seg !replaced;
      let main = Ast.find_func p' "main" in
      (match main.body with
      | { node = Par [ _; [ { node = Assign (Lvar "y", Int 3); _ }; last ] ]; _ } :: _ ->
          Alcotest.(check int) "the rest of the arm is kept" 6 last.line
      | _ -> Alcotest.fail "par arm not rewritten");
      Alcotest.(check bool) "input untouched" true
        (Rewrite.find_by_line p ~line:5 <> None);
      Alcotest.(check bool) "a segment that does not follow its head" true
        (Rewrite.replace_lines p ~lines:[ 4; 6 ] ~f:Fun.id = None)

let test_rename_and_mentions () =
  let open B in
  let body =
    [ decl "t" (v "x" + "a".%[v "i"]);
      for_ "i" (i 0) (len "a") [ seti "a" (v "i") (v "t") ];
      free "a" ]
  in
  List.iter
    (fun x ->
      Alcotest.(check bool) ("mentions " ^ x) true (Rewrite.mentions body x))
    [ "t"; "x"; "a"; "i" ];
  Alcotest.(check bool) "no callee or missing name" false (Rewrite.mentions body "y");
  let renamed = Rewrite.rename_block ~from:"a" ~to_:"b" body in
  Alcotest.(check bool) "every a renamed" false (Rewrite.mentions renamed "a");
  Alcotest.(check bool) "back again" true
    (Rewrite.rename_block ~from:"b" ~to_:"a" renamed = body)

(* A [free] nested in a loop is a write of the array in the loop's folded
   effects, as it is in a function summary and in a top-down item. *)
let test_nested_free_effects () =
  let open B in
  let p =
    prog_of_funcs
      [ func "main"
          [ decl_arr "a" (i 4);
            for_ "k" (i 0) (i 1) [ when_ (v "k" == i 0) [ free "a" ] ];
            return (i 0) ] ]
  in
  let st = Static.analyze p in
  let loop = List.nth (Ast.find_func p "main").body 1 in
  let reads, writes = Transform.Parallelize.stmt_effects st loop in
  Alcotest.(check (list string)) "writes" [ "a"; "k" ] (Static.SS.elements writes);
  Alcotest.(check (list string)) "reads" [ "k" ] (Static.SS.elements reads)

let tests =
  [ Alcotest.test_case "pre-order fold, count, deep copy" `Quick test_pre_order;
    Alcotest.test_case "call sites in every expression position" `Quick
      test_call_sites;
    Alcotest.test_case "top-down call flag sees target indices" `Quick
      test_stmt_has_call;
    Alcotest.test_case "recursive call in a target index" `Quick
      test_call_site_target_index;
    Alcotest.test_case "segment replacement inside a par arm" `Quick
      test_replace_in_par_arm;
    Alcotest.test_case "rename and mentions" `Quick test_rename_and_mentions;
    Alcotest.test_case "nested free is a write in folded effects" `Quick
      test_nested_free_effects ]
