(* Tests for lib/mil/pass.ml: the optimization-pass framework.

   The contract under test (see pass.mli): every pipeline is
   observation-preserving, surviving statements keep their [line] (so an
   optimized program's depfile lines are a subset of the seed's), the
   driver reaches a fixpoint, and per-pass Obs counters account for every
   rewrite. Plus the chunk-clamp regression: parallelizing a 2-iteration
   loop with --chunks 8 must produce 2 well-formed arms, not 8 with 6
   empty ranges. *)

open Mil
module Pass = Mil.Pass
module V = Transform.Validate

let run_exn ?passes p =
  match Pass.run ?passes p with
  | Ok r -> r
  | Error e -> Alcotest.failf "Pass.run: %s" e

(* A program engineered so each pass enables the next: folding the
   condition exposes a dead branch to simplify, whose removal leaves
   [t] unused for DCE — convergence takes several rounds. *)
let cascade_prog =
  let open Builder in
  number
    (program ~entry:"main" "cascade"
       [ func "main"
           [ decl "a" (i 2 + i 3);
             decl "t" (i 0);
             when_ (v "a" - i 5) [ set "t" (v "t" + i 1) ];
             decl "u" (i 7 * i 6);
             return (v "a") ] ])

(* One of each shape [simplify] rewrites, most of which the registry's
   default pipeline never reaches: an arm DCE empties (collapsed), an empty
   then-arm (flipped), a known condition whose arm declares (kept as a
   shell), a [while] on 0 and an empty-range [for] (both removed). [g] is
   written, so propagation leaves its reads alone. *)
let simplify_prog =
  let open Builder in
  number
    (program ~globals:[ gscalar "g" 0 ] ~entry:"main" "simplify-shapes"
       [ func "main"
           [ set "g" (i 3);
             when_ (v "g" > i 0) [ decl "dead" (i 1) ];
             if_ (v "g" > i 1) [] [ set "g" (v "g" + i 1) ];
             when_ (i 1) [ decl "k" (v "g"); set "g" (v "g" + v "k") ];
             while_ (i 0) [ set "g" (i 9) ];
             for_ "j" (i 5) (i 2) [ set "g" (i 7) ];
             return (v "g") ] ])

let test_fixpoint_cascade () =
  let r = run_exn cascade_prog in
  Alcotest.(check bool) "terminated before the 8-round cap" true
    (r.Pass.rounds < 8);
  Alcotest.(check bool) "did rewrite" true (r.Pass.changes > 0);
  (* A fixpoint is a fixpoint: re-running the pipeline changes nothing. *)
  let r2 = run_exn r.Pass.program in
  Alcotest.(check int) "idempotent" 0 r2.Pass.changes;
  (* The cascade actually fired end to end: the dead branch and the unused
     decls are gone, only the return (folded to a literal) remains. *)
  let main =
    List.find (fun (f : Ast.func) -> f.fname = "main") r.Pass.program.funcs
  in
  Alcotest.(check int) "main reduced to its return" 1 (List.length main.body)

let test_counter_conservation () =
  Obs.reset ();
  Obs.enable ();
  let r = run_exn cascade_prog in
  let per_pass_total = List.fold_left (fun a (_, n) -> a + n) 0 r.Pass.per_pass in
  Alcotest.(check int) "per-pass changes sum to the total" r.Pass.changes
    per_pass_total;
  Alcotest.(check int) "pipeline.rounds counter matches the report"
    r.Pass.rounds
    (Obs.counter_value "pass.pipeline.rounds");
  List.iter
    (fun (p, n) ->
      if n > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "pass.%s.fired clicked" p)
          true
          (Obs.counter_value (Printf.sprintf "pass.%s.fired" p) > 0))
    r.Pass.per_pass;
  Obs.reset ()

let test_pass_selection () =
  (* Only DCE selected: the unused decl goes, the foldable expression in a
     live statement stays unfolded. *)
  let open Builder in
  let p =
    number
      (program ~entry:"main" "sel"
         [ func "main"
             [ decl "dead" (i 1); decl "live" (i 2 + i 3); return (v "live") ] ])
  in
  let r = run_exn ~passes:[ "dce" ] p in
  let src = Pretty.render_program r.Pass.program in
  Alcotest.(check bool) "dead decl removed" false
    (Astring_contains.contains src "dead")
  ;
  Alcotest.(check bool) "live expression left unfolded" true
    (Astring_contains.contains src "2 + 3");
  (* Selection respects list order within a round: fold before dce folds the
     live decl too. *)
  let r2 = run_exn ~passes:[ "fold"; "dce" ] p in
  let src2 = Pretty.render_program r2.Pass.program in
  Alcotest.(check bool) "fold+dce folds the live decl" true
    (Astring_contains.contains src2 "5");
  (* Unknown names are an error, not a silent no-op. *)
  match Pass.run ~passes:[ "fold"; "nope" ] p with
  | Error e ->
      Alcotest.(check bool) "error names the bad pass" true
        (Astring_contains.contains e "nope")
  | Ok _ -> Alcotest.fail "unknown pass accepted"

(* Line identity: profile the seed and the optimized program; every line
   that appears in the optimized depfile must exist in the seed's (DCE and
   folding may only remove lines, never renumber survivors). *)
let test_depfile_line_subset () =
  let p =
    let open Builder in
    number
      (program ~globals:[ garray "a" 64; gscalar "s" 0 ] ~entry:"main" "lines"
         [ func "main"
             [ decl "dead1" (i 3 * i 4);
               for_ "i" (i 0) (i 64)
                 [ decl "dead2" (i 9); seti "a" (v "i") (v "i" + i 1) ];
               for_ "i" (i 0) (i 64) [ set "s" (v "s" + "a".%[v "i"]) ];
               return (v "s") ] ])
  in
  let dep_lines prog =
    let res = Profiler.Serial.profile prog in
    List.fold_left
      (fun acc ((d : Profiler.Dep.t), _) ->
        let add l acc = if l > 0 then l :: acc else acc in
        add d.sink_line (add d.src_line acc))
      [] (Profiler.Dep.Set_.to_list res.deps)
    |> List.sort_uniq compare
  in
  let r = run_exn p in
  Alcotest.(check bool) "something was optimized" true (r.Pass.changes > 0);
  let seed_lines = dep_lines p and opt_lines = dep_lines r.Pass.program in
  List.iter
    (fun l ->
      if not (List.mem l seed_lines) then
        Alcotest.failf "optimized depfile line %d absent from seed depfile" l)
    opt_lines

(* Observation preservation + refusal policy on a program with [Par]: the
   restructuring passes must refuse (clicking pass.<name>.refused), the
   count-neutral ones may still fold, and observations are unchanged. *)
let test_par_refusal () =
  let p =
    let open Builder in
    number
      (program ~globals:[ gscalar "x" 0; gscalar "y" 0 ] ~entry:"main" "par"
         [ func "main"
             [ decl "dead" (i 1);
               par [ [ set "x" (i 2 + i 3) ]; [ set "y" (i 4 * i 5) ] ];
               return (v "x" + v "y") ] ])
  in
  Obs.reset ();
  Obs.enable ();
  let r = run_exn p in
  Alcotest.(check bool) "dce refused on a Par program" true
    (Obs.counter_value "pass.dce.refused" > 0);
  let src = Pretty.render_program r.Pass.program in
  Alcotest.(check bool) "dead decl NOT removed (refused, not rewritten)" true
    (Astring_contains.contains src "dead");
  Alcotest.(check (list string))
    "observations preserved" []
    (V.diff_observations (V.observe p) (V.observe r.Pass.program));
  Obs.reset ()

(* Whole-registry invariants that don't need the interpreter: the optimized
   program still renders to parseable, render-stable source. *)
let test_registry_render_roundtrip () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let seed = Workloads.Registry.program w in
      let r = run_exn seed in
      let src = Pretty.render_program r.Pass.program in
      match Mil.Parse.program src with
      | Error e -> Alcotest.failf "%s: optimized render unparseable: %s" w.name e
      | Ok p2 ->
          Alcotest.(check string)
            (w.name ^ ": parse . render idempotent")
            src
            (Pretty.render_program p2))
    Workloads.Catalog.all

(* Observation preservation with the interpreter is the expensive check;
   the full registry runs nightly in bench/exp_passes (CI-gated to 0
   diffs) — here the textbook suite keeps runtest fast. *)
let test_textbook_observations () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let seed = Workloads.Registry.program w in
      let r = run_exn seed in
      match V.diff_observations (V.observe seed) (V.observe r.Pass.program) with
      | [] -> ()
      | ds -> Alcotest.failf "%s: %s" w.name (String.concat "; " ds))
    Workloads.Textbook.all

(* Hoisting a declaration that shadows a name the loop header reads would
   change what the header reads: here the condition must keep reading the
   parameter [x], so [f(0)] returns 1 with or without the pass. *)
let test_hoist_header_shadow () =
  let p =
    let open Builder in
    number
      (program ~entry:"main" "hoist_shadow"
         [ func "f" ~params:[ "x" ]
             [ while_ (v "x" < i 10) [ decl "x" (i 99); return (i 1) ];
               return (i 2) ];
           func "main" [ return (call "f" [ i 0 ]) ] ])
  in
  let r = run_exn ~passes:[ "hoist" ] p in
  let result prog = (Interp.run ~instrument:false prog).Interp.result in
  Alcotest.(check int) "seed returns 1" 1 (result p);
  Alcotest.(check int) "hoisted program returns 1" 1 (result r.Pass.program)

(* ---- chunk clamp regression ----

   A 2-iteration DOALL loop asked to split into 8 chunks must clamp to 2
   arms; before the clamp, 6 of the 8 arms got empty ranges [__c0 == __c1]
   that each still cost a thread spawn. Validation and measurement must
   both pass on the clamped transform. *)

let clamp_prog =
  let open Builder in
  number
    (program ~globals:[ garray "a" 16 ] ~entry:"main" "clamp2"
       [ func "main"
           [ for_ "i" (i 0) (i 2)
               [ seti "a" (i 8 * v "i") (v "i" + i 1);
                 seti "a" ((i 8 * v "i") + i 1) (v "i" + i 2);
                 seti "a" ((i 8 * v "i") + i 2) (v "i" + i 3);
                 seti "a" ((i 8 * v "i") + i 3) (v "i" + i 4) ];
             return ("a".%[i 0] + "a".%[i 9]) ] ])

let count_par_arms (p : Ast.program) =
  let arms = ref (-1) in
  let rec block b = List.iter stmt b
  and stmt (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Par bs ->
        arms := List.length bs;
        List.iter block bs
    | Ast.If (_, t, e) ->
        block t;
        block e
    | Ast.While (_, b) | Ast.For { body = b; _ } -> block b
    | _ -> ()
  in
  List.iter (fun (f : Ast.func) -> block f.body) p.funcs;
  !arms

let test_chunk_clamp () =
  let report = Discovery.Suggestion.analyze ~threads:4 clamp_prog in
  let t =
    match Transform.Parallelize.apply_first ~chunks:8 report with
    | Ok (t, _) -> t
    | Error skipped ->
        Alcotest.failf "nothing transformable: %s"
          (String.concat "; " (List.map snd skipped))
  in
  Alcotest.(check int) "8 requested chunks clamped to the 2-iteration trip" 2
    (count_par_arms t.Transform.Parallelize.transformed);
  let verdict =
    V.differential ~seeds:[ 42; 1009 ] ~original:t.original
      ~transformed:t.transformed ()
  in
  if not verdict.V.v_ok then
    Alcotest.failf "validation failed:\n%s" (V.verdict_to_string verdict);
  let m =
    Transform.Measure.measure ~domains:2 ~warmup:0 ~reps:1 ~name:"clamp2"
      ~original:t.original t.transformed
  in
  Alcotest.(check bool) "measured runs observably equal" true
    m.Transform.Measure.m_equal

let tests =
  [ Alcotest.test_case "fixpoint: fold->simplify->dce cascade" `Quick
      test_fixpoint_cascade;
    Alcotest.test_case "per-pass counters account for every rewrite" `Quick
      test_counter_conservation;
    Alcotest.test_case "--passes selection and ordering" `Quick
      test_pass_selection;
    Alcotest.test_case "depfile lines of optimized subset of seed" `Quick
      test_depfile_line_subset;
    Alcotest.test_case "Par program: restructuring refused, behavior kept"
      `Quick test_par_refusal;
    Alcotest.test_case "registry: optimized render parse-stable" `Quick
      test_registry_render_roundtrip;
    Alcotest.test_case "textbook: optimized observations unchanged" `Quick
      test_textbook_observations;
    Alcotest.test_case "DOALL chunks clamp to trip count" `Quick
      test_chunk_clamp;
    Alcotest.test_case "hoist keeps a shadowed loop-header name" `Quick
      test_hoist_header_shadow ]
