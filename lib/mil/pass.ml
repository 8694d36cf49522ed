(* The MIL optimization-pass framework — ROADMAP item 3, modeled on flrc's
   mil/optimise architecture: a registry of named [program -> program]
   passes, per-pass Obs click counters ([pass.<name>.fired],
   [pass.<name>.stmts_removed], [pass.<name>.exprs_folded],
   [pass.<name>.refused]), and a fixpoint pipeline driver.

   Two invariants every pass must keep:

   - Observation preservation: the entry function's result, the final value
     of every program global, and the [print] stream are exactly those of
     the input program, for every seed ({!Transform.Validate.observe}).
     This forces two safety tiers. Passes that preserve the *dynamic
     statement count* (folding, constant propagation, branch-condition
     normalisation) are legal everywhere, even inside [Par] — the fiber
     scheduler and the [rand] builtin share one PRNG, and yields happen per
     executed statement, so only statement-count changes can perturb
     scheduling and thereby the rand stream. Restructuring passes
     (simplify, DCE, hoisting, unrolling) change statement counts. The
     gate is [run]'s alone: it checks {!sequential_program} once per run
     and, when the program fails it, clicks [pass.<name>.refused] for each
     restructuring pass instead of running it. A restructuring pass
     therefore only ever sees a sequential program and checks nothing
     itself.

   - Line identity: surviving statements keep their [line] numbers
     (depfiles and suggestions are keyed by source line), and statements a
     pass introduces reuse the line of the construct they came from — so an
     optimized program's depfile lines are a subset of the seed's, and
     [Pretty.render] ∘ [Parse.program] stays idempotent (the parser
     preserves explicit line prefixes). *)

open Ast
module SS = Static.SS

(* ---- syntactic helpers ---- *)

(* No faults, no events beyond scalar reads, no calls: safe to evaluate
   anywhere the same names are in scope, and safe to drop. [Len]/[Idx] are
   excluded — they fault on unbound arrays / OOB indices. *)
let pure_simple e =
  not (exists_expr (function Idx _ | Len _ | Call _ -> true | _ -> false) e)

let expr_reads e = Static.expr_read_vars e SS.empty
let add_names names acc = List.fold_left (fun acc x -> SS.add x acc) acc names

(* Every name an expression mentions, including array names. *)
let expr_mentions e acc =
  fold_expr
    (fun acc e -> match e with Var x | Len x | Idx (x, _) -> SS.add x acc | _ -> acc)
    acc e

(* All names a block mentions anywhere: reads, writes, binders, indices. *)
let block_mentions b acc =
  fold_block (fun acc s -> add_names (Rewrite.stmt_names s []) acc) acc b

(* Names assigned (scalar writes) anywhere in a block, at any depth. *)
let block_assigns b acc =
  fold_block
    (fun acc s ->
      match s.node with
      | Assign (Lvar x, _) | Atomic_assign (Lvar x, _) -> SS.add x acc
      | _ -> acc)
    acc b

(* Names bound by Decl/Decl_arr or used as a For index, at any depth. *)
let block_binders b acc =
  fold_block
    (fun acc s ->
      match s.node with
      | Decl (x, _) | Decl_arr (x, _) | For { index = x; _ } -> SS.add x acc
      | _ -> acc)
    acc b

let block_frees b acc =
  fold_block (fun acc s -> match s.node with Free x -> SS.add x acc | _ -> acc) acc b

let mk line node = { line; node }

(* Substitute [Var x] by expression [by] everywhere in a block. Callers
   must ensure no binder of [x] shadows inside the walked region. *)
let subst_var_block x by b =
  let e = map_expr (function Var y when y = x -> by | e -> e) in
  map_block (map_stmt ~expr:e) b

(* Can this expression's evaluation be skipped without dropping an effect?
   Scalar arithmetic always; calls only when everything transitively
   reachable is effect-free by {!Static.summary} (writes no globals, writes
   no array params) and never reaches [rand]/[print]. [Idx] is refused so a
   pass never masks an out-of-bounds fault the seed would have hit. *)
let droppable_rhs (st : Static.t Lazy.t) prog (e : expr) =
  (not (exists_expr (function Idx _ -> true | _ -> false) e))
  &&
  if not (Rewrite.expr_has_call e) then true
  else
    let probe = [ mk 0 (Call_stmt ("__probe", [ e ])) ] in
    let callees = Rewrite.reachable_calls prog probe in
    List.for_all
      (fun f ->
        if is_builtin f then pure_builtin f
        else
          f = "__probe"
          ||
          match Static.summary (Lazy.force st) f with
          | Some s -> SS.is_empty s.sum_gwritten && SS.is_empty s.sum_pwritten
          | None -> false)
      callees

(* ---- pass plumbing ---- *)

type ctx = {
  prog : program;
  globals : SS.t;
  static : Static.t Lazy.t;
  mutable changes : int;
  mutable fresh : int; (* unroll name counter, unique per driver run *)
  pass : string;
}

let click ctx what n =
  if n > 0 then Obs.Counter.add (Obs.counter (Printf.sprintf "pass.%s.%s" ctx.pass what)) n

let note ctx what n =
  if n > 0 then begin
    ctx.changes <- ctx.changes + n;
    click ctx what n
  end

type t = {
  name : string;
  doc : string;
  restructuring : bool; (* changes dynamic statement counts; see the header *)
  rewrite : ctx -> program -> program;
}

let map_funcs f (p : program) =
  { p with funcs = List.map (fun fn -> { fn with body = f fn fn.body }) p.funcs }

(* ---- constant folding ---- *)

let fold_pass =
  let fe ctx e =
    let hit e' =
      note ctx "exprs_folded" 1;
      e'
    in
    match e with
    | Neg (Int n) -> hit (Int (-n))
    | Not (Int n) -> hit (Int (if n <> 0 then 0 else 1))
    | Bin (op, a, b) -> (
        match (op, a, b) with
        (* Division/mod by a literal zero is left intact: the interpreter
           defines it (yields 0), but the fold must not normalise away the
           anomaly the source spells out. *)
        | (Div | Mod), _, Int 0 -> e
        | _, Int x, Int y -> hit (Int (Compile.apply_binop op x y))
        | Add, x, Int 0 | Add, Int 0, x | Sub, x, Int 0 -> hit x
        | Mul, x, Int 1 | Mul, Int 1, x | Div, x, Int 1 -> hit x
        | (Shl | Shr), x, Int 0 -> hit x
        | Mul, x, Int 0 | Mul, Int 0, x when pure_simple x -> hit (Int 0)
        | And, x, Int 0 | And, Int 0, x when pure_simple x -> hit (Int 0)
        | Or, x, Int c when c <> 0 && pure_simple x -> hit (Int 1)
        | Or, Int c, x when c <> 0 && pure_simple x -> hit (Int 1)
        | _ -> e)
    | e -> e
  in
  { name = "fold";
    doc = "constant folding and algebraic identities (div/mod-by-zero kept)";
    restructuring = false;
    rewrite =
      (fun ctx p ->
        map_funcs (fun _ b -> map_block (map_stmt ~expr:(map_expr (fe ctx))) b) p) }

(* ---- constant propagation ---- *)

(* A [Decl (x, Int v)] whose name is never reassigned or freed in its scope
   lets every dominated read of [x] become the literal — each substituted
   read is one access event the profiler no longer pays for. Never-written
   scalar globals propagate the same way. Declarations are left in place
   (their removal is DCE's job, which runs only on sequential programs):
   substitution keeps the dynamic statement count, so it is legal inside
   [Par] arms — where it folds the DOALL chunk-bound arithmetic
   [__c0]/[__c1] into literal loop bounds. *)
let prop_pass =
  let module SM = Map.Make (String) in
  let subst ctx (env : int SM.t) e =
    if SM.is_empty env then e
    else
      map_expr
        (function
          | Var x as e -> (
              match SM.find_opt x env with
              | Some v ->
                  note ctx "exprs_folded" 1;
                  Int v
              | None -> e)
          | e -> e)
        e
  in
  let rec walk ctx env block =
    match block with
    | [] -> []
    | s :: rest ->
        (* Nested blocks start from the current bindings: branch arms, and
           [Par] arms too (copy-on-fork of the binding table, same
           addresses) — a name is only propagated if no arm writes it, as
           [block_assigns] sees through [Par]. *)
        let nested env b = walk ctx (ref env) b in
        (* Anything a loop body writes is unknown across iterations — and
           the condition is re-evaluated after the body ran. *)
        let kill body =
          let killed = block_assigns body (block_binders body SS.empty) in
          env := SM.filter (fun x _ -> not (SS.mem x killed)) !env
        in
        let s' =
          match s.node with
          | For f ->
              kill f.body;
              let lo = subst ctx !env f.lo in
              (* hi/step are evaluated with the index in scope. *)
              let env_in = SM.remove f.index !env in
              let hi = subst ctx env_in f.hi
              and step = subst ctx env_in f.step in
              mk s.line (For { f with lo; hi; step; body = nested env_in f.body })
          | While (_, body) ->
              kill body;
              map_stmt ~expr:(subst ctx !env) ~block:(nested !env) s
          | _ -> map_stmt ~expr:(subst ctx !env) ~block:(nested !env) s
        in
        (match s'.node with
        | Decl (x, Int v)
          when (not (SS.mem x (block_assigns rest SS.empty)))
               && not (SS.mem x (block_frees rest SS.empty)) ->
            env := SM.add x v !env
        | Decl (x, _) | Decl_arr (x, _) | Free x
        | Assign (Lvar x, _) | Atomic_assign (Lvar x, _) ->
            env := SM.remove x !env
        | _ -> ());
        s' :: walk ctx env rest
  in
  let run ctx p =
    (* Scalar globals never assigned anywhere are program-wide constants. *)
    let written =
      List.fold_left
        (fun acc f -> block_assigns f.body acc)
        SS.empty p.funcs
    in
    let const_globals =
      List.filter_map
        (function
          | Gscalar (g, v) when not (SS.mem g written) -> Some (g, v)
          | _ -> None)
        p.globals
    in
    map_funcs
      (fun fn body ->
        let env0 =
          List.fold_left
            (fun m (g, v) ->
              if List.mem g fn.params || List.mem g fn.arr_params then m
              else SM.add g v m)
            SM.empty const_globals
        in
        walk ctx (ref env0) body)
      p
  in
  { name = "prop";
    doc = "forward propagation of constant locals and never-written globals";
    restructuring = false;
    rewrite = run }

(* ---- branch / diamond simplification ---- *)

let simplify_pass =
  let rec walk ctx block = List.concat_map (one ctx) block
  and one ctx s =
    match s.node with
    | If (Int c, t, el) ->
        let live, dead = if Compile.truthy c then (t, el) else (el, t) in
        let dropped = Rewrite.count_stmts dead in
        note ctx "stmts_removed" dropped;
        if c <> 1 || dead <> [] then note ctx "normalized" 1;
        let live = walk ctx live in
        if
          List.for_all
            (fun s' -> match s'.node with Decl _ | Decl_arr _ -> false | _ -> true)
            live
        then begin
          (* Splicing the arm into the enclosing block removes the branch
             statement itself; arms with top-level declarations keep the
             [If] shell, since their bindings must not leak. *)
          note ctx "stmts_removed" 1;
          live
        end
        else [ mk s.line (If (Int 1, live, [])) ]
    | If (c, [], []) when pure_simple c ->
        note ctx "stmts_removed" 1;
        []
    | If (c, [], el) when el <> [] ->
        note ctx "normalized" 1;
        [ mk s.line (If (Not c, walk ctx el, [])) ]
    | While (Int 0, body) ->
        note ctx "stmts_removed" (1 + Rewrite.count_stmts body);
        []
    | For ({ lo = Int l; hi = Int h; _ } as f) when h <= l ->
        note ctx "stmts_removed" (1 + Rewrite.count_stmts f.body);
        []
    | _ -> [ map_stmt ~block:(walk ctx) s ]
  in
  { name = "simplify";
    doc = "branch simplification on known conditions, empty-arm collapse";
    restructuring = true;
    rewrite = (fun ctx p -> map_funcs (fun _ b -> walk ctx b) p) }

(* ---- dead code elimination ---- *)

(* Names a function actually *reads* (any occurrence that is not a plain
   scalar-assignment target or a binder): removal candidates must stay out
   of this set. *)
let func_reads (fn : func) =
  fold_block
    (fun acc s ->
      let acc = List.fold_left (fun acc e -> expr_mentions e acc) acc (stmt_exprs s) in
      match s.node with
      | Assign (Lidx (a, _), _) | Atomic_assign (Lidx (a, _), _) | Free a ->
          SS.add a acc
      | For { index; _ } ->
          (* the loop's own bookkeeping reads the index address every
             iteration, so an index written in the body is live *)
          SS.add index acc
      | _ -> acc)
    SS.empty fn.body

let dce_pass =
  let run ctx p =
    map_funcs
      (fun fn body ->
        let reads = func_reads fn in
        let binders = block_binders body SS.empty in
        (* A scalar name is fully dead when nothing ever reads it, it names
           no global or parameter (assignments must keep hitting the same
           binding), and every write to it has a droppable RHS — then the
           declaration *and* all its assignments go together. *)
        let dead_ok x =
          (not (SS.mem x reads))
          && (not (SS.mem x ctx.globals))
          && (not (List.mem x fn.params))
          && (not (List.mem x fn.arr_params))
          && SS.mem x binders
        in
        let rhs_ok e = droppable_rhs ctx.static ctx.prog e in
        (* First reject names with any non-droppable write. *)
        let blocked =
          fold_block
            (fun blocked s ->
              match s.node with
              | Decl (x, e) when dead_ok x && not (rhs_ok e) -> SS.add x blocked
              | Assign (Lvar x, e) when dead_ok x && not (rhs_ok e) ->
                  SS.add x blocked
              | Atomic_assign (Lvar x, _) when dead_ok x -> SS.add x blocked
              | Decl_arr (x, _) when dead_ok x ->
                  (* arrays keep their allocation (Len/addr semantics) *)
                  SS.add x blocked
              | _ -> blocked)
            SS.empty body
        in
        let removable x = dead_ok x && not (SS.mem x blocked) in
        let rec sweep b =
          let b =
            (* post-Return/Break trimming: nothing after an unconditional
               exit of the block executes *)
            let rec cut = function
              | [] -> []
              | ({ node = Return _ | Break; _ } as s) :: rest ->
                  note ctx "stmts_removed" (Rewrite.count_stmts rest);
                  [ s ]
              | s :: rest -> s :: cut rest
            in
            cut b
          in
          List.concat_map
            (fun s ->
              match s.node with
              | Decl (x, _) | Assign (Lvar x, _) when removable x ->
                  note ctx "stmts_removed" 1;
                  []
              | _ -> [ map_stmt ~block:sweep s ])
            b
        in
        sweep body)
      p
  in
  { name = "dce";
    doc = "remove never-read locals and unreachable post-return/break code";
    restructuring = true;
    rewrite = run }

(* ---- loop-invariant hoisting ---- *)

let hoist_pass =
  let run ctx p =
    map_funcs
      (fun fn body ->
        (* visible: names certainly bound when control reaches this point *)
        let rec walk visible block =
          match block with
          | [] -> []
          | s :: rest -> (
              match s.node with
              | Decl (x, _) | Decl_arr (x, _) -> s :: walk (SS.add x visible) rest
              | While (c, wb) ->
                  let hoisted, wb' = hoist_from visible s wb in
                  hoisted
                  @ (mk s.line (While (c, walk visible wb')) :: walk visible rest)
              | For f ->
                  let hoisted, fb' = hoist_from visible s f.body in
                  let body = walk (SS.add f.index visible) fb' in
                  hoisted @ (mk s.line (For { f with body }) :: walk visible rest)
              | _ -> map_stmt ~block:(walk visible) s :: walk visible rest)
        (* Pull invariant leading declarations out of a loop body. *)
        and hoist_from visible loop_stmt body =
          let index_of =
            match loop_stmt.node with
            | For { index; _ } -> Some index
            | _ -> None
          in
          let assigns = block_assigns body SS.empty in
          let binders = block_binders body SS.empty in
          (* occurrences of a name in the function, excluding this loop's
             body: a hoisted binding must not shadow or capture anything the
             rest of the function mentions — the loop's own condition,
             bounds and index included, which run outside the body's scope *)
          let rec mentions_excl b acc =
            List.fold_left
              (fun acc s ->
                let acc = add_names (Rewrite.stmt_names s []) acc in
                if s == loop_stmt then acc
                else
                  List.fold_left (fun acc b -> mentions_excl b acc) acc (stmt_blocks s))
              acc b
          in
          let outside_mentions = mentions_excl fn.body SS.empty in
          let rec take prefix rest =
            match rest with
            | ({ node = Decl (x, rhs); _ } as d) :: more
              when pure_simple rhs
                   && (let rv = expr_reads rhs in
                       SS.subset rv visible
                       && SS.is_empty (SS.inter rv assigns)
                       && SS.is_empty (SS.inter rv binders)
                       && match index_of with
                          | Some i -> not (SS.mem i rv)
                          | None -> true)
                   && (not (SS.mem x assigns))
                   && (not (SS.mem x outside_mentions))
                   && (not (SS.mem x ctx.globals))
                   && (match index_of with Some i -> x <> i | None -> true) ->
                note ctx "hoisted" 1;
                take (d :: prefix) more
            | _ -> (List.rev prefix, rest)
          in
          take [] body
        in
        let visible0 =
          List.fold_left
            (fun acc x -> SS.add x acc)
            ctx.globals (fn.params @ fn.arr_params)
        in
        walk visible0 body)
      p
  in
  { name = "hoist";
    doc = "hoist loop-invariant leading declarations out of loop bodies";
    restructuring = true;
    rewrite = run }

(* ---- loop unrolling ---- *)

(* The event-economics pass: each [For] iteration pays three bookkeeping
   accesses (condition index read, increment read+write) plus the bound
   re-evaluation. Fully unrolling a small constant-trip loop turns every
   index read into a literal and deletes all bookkeeping; partially
   unrolling a hot innermost loop amortises bookkeeping over [factor]
   body copies. Trip-count semantics (including negative/zero trips) follow
   the interpreter exactly; the remainder loop reuses the original body, so
   every surviving statement keeps its seed line. *)
let unroll_factor = 4

let unroll_pass =
  let marked index =
    String.length index >= 3 && String.sub index 0 3 = "__u"
  in
  (* statements that neither escape the loop nor manage storage *)
  let body_plain =
    Fun.negate
      (exists_block (fun s ->
           is_sync s
           ||
           match s.node with
           | Break | Return _ | Par _ | Free _ | Decl_arr _ | Atomic_assign _ ->
               true
           | _ -> false))
  in
  let has_loop =
    exists_block (fun s -> match s.node with While _ | For _ -> true | _ -> false)
  in
  (* Partial unrolling pays a per-entry prelude (trip + main-bound decls);
     a loop that calls user code per iteration is dominated by the callee
     and is typically a short trip entered many times (recursive descent),
     where the prelude is a net loss — refuse those. Builtins stay fine. *)
  let has_user_call b =
    List.exists (Fun.negate is_builtin) (Rewrite.block_calls b)
  in
  (* No top-level-declared name may be mentioned before its declaration:
     copies concatenate into one scope, so an early read would see the
     previous copy's binding instead of the enclosing scope's. *)
  let decl_order_ok body =
    let rec go seen = function
      | [] -> true
      | s :: rest -> (
          match s.node with
          | Decl (x, rhs) ->
              if SS.mem x (expr_mentions rhs SS.empty) then false
              else go (SS.add x seen) rest
          | _ ->
              let m = block_mentions [ s ] SS.empty in
              let later_decls =
                List.fold_left
                  (fun acc s' ->
                    match s'.node with
                    | Decl (x, _) -> SS.add x acc
                    | _ -> acc)
                  SS.empty rest
              in
              if not (SS.is_empty (SS.inter m later_decls)) then false
              else go seen rest)
    in
    go SS.empty body
  in
  let top_decls body =
    List.filter_map
      (fun s -> match s.node with Decl (x, _) -> Some x | _ -> None)
      body
  in
  (* One body copy: rename its top-level locals to copy-unique names and
     replace the index variable by [by]. *)
  let instantiate uid c body index by =
    let copy = Rewrite.copy_block body in
    let copy =
      List.fold_left
        (fun b d ->
          Rewrite.rename_block ~from:d
            ~to_:(Printf.sprintf "__u%dc%d_%s" uid c d)
            b)
        copy (top_decls body)
    in
    subst_var_block index by copy
  in
  let calls_write_any ctx body vars =
    SS.exists
      (fun v ->
        SS.mem v ctx.globals
        && List.exists
             (fun f ->
               (not (is_builtin f))
               &&
               match Static.summary (Lazy.force ctx.static) f with
               | Some s -> SS.mem v s.sum_gwritten
               | None -> true)
             (Rewrite.reachable_calls ctx.prog body))
      vars
  in
  let rec walk ctx block = List.concat_map (one ctx) block
  and one ctx s =
    match s.node with
    | For f when not (marked f.index) -> (
        let body = walk ctx f.body in
        let f = { f with body } in
        let binders = block_binders f.body SS.empty in
        let assigns = block_assigns f.body SS.empty in
        let base_ok =
          body_plain f.body && decl_order_ok f.body
          && (not (SS.mem f.index binders))
          && (not (SS.mem f.index assigns))
          && f.body <> []
        in
        match (f.lo, f.hi, f.step) with
        | Int l, Int h, Int st
          when base_ok && st > 0 && h > l
               && (h - l + st - 1) / st <= 8
               && (h - l + st - 1) / st * Rewrite.count_stmts f.body <= 48 ->
            (* full unroll: the index becomes a literal everywhere *)
            let trip = (h - l + st - 1) / st in
            let uid = ctx.fresh in
            ctx.fresh <- ctx.fresh + 1;
            note ctx "full" 1;
            note ctx "stmts_removed" 1;
            List.concat
              (List.init trip (fun c ->
                   instantiate uid c f.body f.index (Int (l + (c * st)))))
        | lo, hi, Int st
          when base_ok && st > 0
               && (not (has_loop f.body))
               && (not (has_user_call f.body))
               && pure_simple lo && pure_simple hi
               && Rewrite.count_stmts f.body <= 16
               &&
               let bound_vars = expr_reads hi (* lo too *) in
               let bound_vars = SS.union bound_vars (expr_reads lo) in
               (not (SS.mem f.index bound_vars))
               && SS.is_empty (SS.inter bound_vars assigns)
               && SS.is_empty (SS.inter bound_vars binders)
               && not (calls_write_any ctx f.body bound_vars) ->
            (* partial unroll by [unroll_factor], remainder loop reuses the
               original body under a marked index name *)
            let u = unroll_factor in
            let uid = ctx.fresh in
            ctx.fresh <- ctx.fresh + 1;
            note ctx "partial" 1;
            let nm sfx = Printf.sprintf "__u%d%s" uid sfx in
            let tname = nm "t" and mname = nm "m" in
            let mi = nm ("_" ^ f.index) in
            let ri = nm ("r_" ^ f.index) in
            let trip =
              (* iterations executed = max(0, ceil((hi-lo)/step)), with
                 truncating division reproducing the interpreter's count
                 for hi<=lo as a non-positive value *)
              Bin (Div, Bin (Add, Bin (Sub, hi, lo), Int (st - 1)), Int st)
            in
            let main_bound =
              Bin
                ( Add,
                  lo,
                  Bin (Mul, Bin (Mul, Bin (Div, Var tname, Int u), Int u), Int st)
                )
            in
            let copies =
              List.concat
                (List.init u (fun c ->
                     let by =
                       if c = 0 then Var mi
                       else Bin (Add, Var mi, Int (c * st))
                     in
                     instantiate uid c f.body f.index by))
            in
            let remainder_body =
              Rewrite.rename_block ~from:f.index ~to_:ri
                (Rewrite.copy_block f.body)
            in
            [ mk s.line (Decl (tname, trip));
              mk s.line (Decl (mname, main_bound));
              mk s.line
                (For
                   { index = mi;
                     lo;
                     hi = Var mname;
                     step = Int (u * st);
                     body = copies });
              mk s.line
                (For
                   { index = ri;
                     lo = Var mname;
                     hi;
                     step = Int st;
                     body = remainder_body }) ]
        | _ -> [ mk s.line (For f) ])
    | _ -> [ map_stmt ~block:(walk ctx) s ]
  in
  { name = "unroll";
    doc = "full unroll of small constant loops, 4x partial unroll of hot \
           innermost loops";
    restructuring = true;
    rewrite = (fun ctx p -> map_funcs (fun _ b -> walk ctx b) p) }

(* ---- registry and driver ---- *)

let all = [ fold_pass; prop_pass; simplify_pass; dce_pass; hoist_pass; unroll_pass ]
let names () = List.map (fun p -> p.name) all
let doc name =
  List.find_opt (fun p -> p.name = name) all |> Option.map (fun p -> p.doc)

let default_pipeline = [ "fold"; "prop"; "simplify"; "dce"; "unroll"; "hoist" ]

type report = {
  program : program;
  rounds : int;
  changes : int;
  per_pass : (string * int) list; (* total changes attributed per pass *)
}

let sequential_program (p : program) =
  not (List.exists (fun f -> Rewrite.has_sync f.body) p.funcs)

let run ?(passes = default_pipeline) prog : (report, string) result =
  match
    List.filter (fun n -> not (List.exists (fun p -> p.name = n) all)) passes
  with
  | bad :: _ -> Error (Printf.sprintf "unknown pass: %s" bad)
  | [] ->
      let selected =
        List.map (fun n -> List.find (fun p -> p.name = n) all) passes
      in
      let prog = ref (Rewrite.copy_program prog) in
      let sequential = sequential_program !prog in
      let totals = Hashtbl.create 8 in
      let rounds = ref 0 and total = ref 0 in
      let fresh = ref 0 in
      let continue_ = ref true in
      (* A fixpoint not reached in 8 rounds is cut off there. *)
      while !continue_ && !rounds < 8 do
        incr rounds;
        let round_changes = ref 0 in
        List.iter
          (fun pass ->
            if pass.restructuring && not sequential then begin
              if !rounds = 1 then
                Obs.Counter.incr
                  (Obs.counter (Printf.sprintf "pass.%s.refused" pass.name))
            end
            else begin
              let ctx =
                { prog = !prog;
                  globals =
                    List.fold_left
                      (fun acc g ->
                        match g with
                        | Gscalar (n, _) | Garray (n, _) -> SS.add n acc)
                      SS.empty !prog.globals;
                  static = lazy (Static.analyze !prog);
                  changes = 0;
                  fresh = !fresh;
                  pass = pass.name }
              in
              let p' = pass.rewrite ctx !prog in
              fresh := ctx.fresh;
              if ctx.changes > 0 then begin
                Obs.Counter.incr
                  (Obs.counter (Printf.sprintf "pass.%s.fired" pass.name));
                prog := p';
                round_changes := !round_changes + ctx.changes;
                Hashtbl.replace totals pass.name
                  ((try Hashtbl.find totals pass.name with Not_found -> 0)
                  + ctx.changes)
              end
            end)
          selected;
        total := !total + !round_changes;
        if !round_changes = 0 then continue_ := false
      done;
      Obs.Counter.add (Obs.counter "pass.pipeline.rounds") !rounds;
      Ok
        { program = !prog;
          rounds = !rounds;
          changes = !total;
          per_pass =
            List.filter_map
              (fun p ->
                match Hashtbl.find_opt totals p.name with
                | Some n -> Some (p.name, n)
                | None -> None)
              selected }
