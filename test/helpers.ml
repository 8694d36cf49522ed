(* Shared test helpers: tiny MIL programs, dependence-set assertions, and a
   QCheck generator of random (memory-safe) MIL programs used by the
   profiler-equivalence property tests. *)

open Mil
module Dep = Profiler.Dep

let prog_of_main ?(globals = []) body =
  Builder.number
    (Builder.program ~globals ~entry:"main" "test" [ Builder.func "main" body ])

(* The paper's Figure 2.7 loop. *)
let fig27 =
  let open Builder in
  prog_of_main
    [ decl "k" (i 100);
      decl "sum" (i 0);
      while_ (v "k" > i 0)
        [ set "sum" (v "sum" + v "k" * i 2); set "k" (v "k" - i 1) ] ]

(* The paper's Figure 2.8 loop: w x; r x; r x; w x. *)
let fig28 =
  let open Builder in
  prog_of_main ~globals:[ Builder.gscalar "x" 0 ]
    [ for_ "it" (i 0) (i 50)
        [ set "x" (v "it");
          decl "a" (v "x");
          decl "b" (v "x" + i 1);
          set "x" (v "a" + v "b") ] ]

(* Figure 3.4: single-CU loop body. *)
let fig34 =
  let open Builder in
  prog_of_main
    [ decl "x" (i 3);
      for_ "it" (i 0) (i 20)
        [ decl "a" (v "x" + call "rand" [ i 10 ] / v "x");
          decl "b" (v "x" - call "rand" [ i 10 ] / v "x");
          set "x" (v "a" + v "b") ] ]

(* The 71 registry programs, and one of them by name. *)
let registry =
  Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Starbench.all
  @ Workloads.Bots.all @ Workloads.Apps.all @ Workloads.Splash2x.all
  @ Workloads.Numerics.all @ Workloads.Parsec.all

let workload name =
  match List.find_opt (fun (w : Workloads.Registry.t) -> w.name = name) registry with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let profile ?shadow ?skip ?seed ?scramble_unlocked p =
  Profiler.Serial.profile ?shadow ?skip ?seed ?scramble_unlocked p

let dep_strings (deps : Dep.Set_.t) : string list =
  Dep.Set_.to_list deps
  |> List.map (fun (d, _) ->
         Printf.sprintf "%d<-%s" d.Dep.sink_line (Dep.to_string d))

let check_same_deps msg (a : Dep.Set_.t) (b : Dep.Set_.t) =
  let fpr, fnr = Dep.Set_.accuracy ~truth:a ~got:b in
  if fpr <> 0.0 || fnr <> 0.0 then begin
    let only l1 l2 = List.filter (fun x -> not (List.mem x l2)) l1 in
    let sa = dep_strings a and sb = dep_strings b in
    Alcotest.failf "%s: fpr=%.3f fnr=%.3f\n missing: %s\n extra: %s" msg fpr fnr
      (String.concat " " (only sa sb))
      (String.concat " " (only sb sa))
  end

(* ---- random program generator ----

   Programs are memory-safe by construction: array indices are always taken
   modulo the (constant) array length; loop bounds are small constants;
   a bounded set of scalar and array names is used so that dependences
   actually collide. *)

module Gen = struct
  open QCheck.Gen

  let scalars = [| "s0"; "s1"; "s2" |]
  let arrays = [| "a0"; "a1" |]
  let arr_len = 8

  let scalar = map (fun k -> scalars.(k mod Array.length scalars)) (int_bound 10)
  let array_ = map (fun k -> arrays.(k mod Array.length arrays)) (int_bound 10)

  let rec expr depth =
    let open Ast in
    if depth = 0 then
      oneof
        [ map (fun n -> Int (n - 8)) (int_bound 16);
          map (fun x -> Var x) scalar;
          map2 (fun a k -> Idx (a, Bin (Mod, Call ("abs", [ Int k ]), Int arr_len)))
            array_ (int_bound 100) ]
    else
      frequency
        [ (2, expr 0);
          (2,
           map3
             (fun op e1 e2 -> Bin (op, e1, e2))
             (oneofl [ Add; Sub; Mul; Min; Max; Bxor ])
             (expr (depth - 1)) (expr (depth - 1)));
          (1,
           map2
             (fun a e ->
               Idx (a, Bin (Mod, Call ("abs", [ e ]), Int arr_len)))
             array_ (expr (depth - 1))) ]

  let assign =
    let open Ast in
    oneof
      [ map2 (fun x e -> { line = 0; node = Assign (Lvar x, e) }) scalar (expr 2);
        map3
          (fun a ie e ->
            { line = 0;
              node =
                Assign (Lidx (a, Bin (Mod, Call ("abs", [ ie ]), Int arr_len)), e) })
          array_ (expr 1) (expr 2) ]

  let rec stmt depth =
    let open Ast in
    if depth = 0 then assign
    else
      frequency
        [ (4, assign);
          (2,
           map2
             (fun c body -> { line = 0; node = If (c, body, []) })
             (expr 1)
             (list_size (int_range 1 3) (stmt (depth - 1))));
          (2,
           map2
             (fun n body ->
               { line = 0;
                 node =
                   For
                     { index = "q" ^ string_of_int depth;
                       lo = Int 0; hi = Int (2 + (n mod 6)); step = Int 1;
                       body } })
             (int_bound 10)
             (list_size (int_range 1 4) (stmt (depth - 1)))) ]

  let program_gen =
    map
      (fun stmts ->
        let open Builder in
        let globals =
          [ gscalar "s0" 1; gscalar "s1" 2; gscalar "s2" 3;
            garray "a0" arr_len; garray "a1" arr_len ]
        in
        number (program ~globals ~entry:"main" "rand_prog" [ func "main" stmts ]))
      (list_size (int_range 2 8) (stmt 2))

  let arbitrary_program =
    QCheck.make program_gen ~print:(fun p -> Pretty.render_program p)
end
