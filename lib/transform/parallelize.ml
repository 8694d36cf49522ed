(* Suggestion-driven auto-parallelization of MIL (Table 4.2).

   The paper validates Phase-3 suggestions by hand-parallelizing the
   suggested regions; MIL already has [Par]/[Lock]/[Atomic_assign] and an
   interpreter, so this subsystem closes the loop mechanically. Each
   transform consumes a {!Discovery.Suggestion.t} and rewrites a deep copy
   of the program:

   - DOALL: the loop becomes one [Par] statement of C chunk blocks, each
     running a contiguous slice of the iteration space; recognised
     reductions accumulate into per-chunk locals combined atomically (or,
     when the update lives in a callee, the callee's reduction statement is
     made atomic in place); carried WAR/WAW scalars are privatised with a
     guarded lastprivate write-back.
   - DOACROSS: the body is fissioned into a dependence-free prefix A and
     the carried suffix B at statement granularity; every chunk runs its
     A-slice concurrently, while B-slices execute in chunk order, passing
     the carried scalars from chunk to chunk through lock-protected
     hand-off sections gated by ready flags.
   - SPMD (recursive fork-join): consecutive recursive task statements
     become [Par]-spawned bodies with declared results hoisted.
   - MPMD (task graph): a contiguous, pairwise-independent run of
     same-stage items becomes one [Par] statement.

   A transform that cannot be proven shape-safe returns [Error] with the
   reason; differential validation ({!Validate}) is the backstop for
   everything the static checks cannot see. *)

module Ast = Mil.Ast
module B = Mil.Builder
module R = Mil.Rewrite
module Static = Mil.Static
module SS = Static.SS
module TD = Cunit.Top_down
module Dep = Profiler.Dep
module Loops = Discovery.Loops
module Tasks = Discovery.Tasks
module Suggestion = Discovery.Suggestion

let c_applied = Obs.counter "transform.applied"
let c_unsupported = Obs.counter "transform.unsupported"

let ( let* ) = Result.bind

type plan = {
  p_suggestion : Suggestion.t;
  p_line : int;  (* header line of the transformed construct (original) *)
  p_chunks : int;
  p_notes : string list;
}

type t = {
  original : Ast.program;
  transformed : Ast.program;
  plan : plan;
}

(* ---- small helpers ---- *)

let array_names (p : Ast.program) : SS.t =
  let globals =
    List.filter_map
      (function Ast.Garray (n, _) -> Some n | Ast.Gscalar _ -> None)
      p.globals
  in
  List.fold_left
    (fun acc (f : Ast.func) ->
      Ast.fold_block
        (fun acc (s : Ast.stmt) ->
          match s.node with Decl_arr (x, _) -> SS.add x acc | _ -> acc)
        (SS.union acc (SS.of_list f.arr_params))
        f.body)
    (SS.of_list globals) p.funcs

let identity_of_op (op : Ast.binop) =
  match op with
  | Add | Bor | Bxor -> Some 0
  | Mul -> Some 1
  | Band -> Some (-1)
  | Min -> Some max_int
  | Max -> Some min_int
  | _ -> None

(* Rename [from] only within the statements at the given lines (used to
   redirect reduction statements to a per-chunk accumulator while leaving
   the rest of the body alone). *)
let rename_at_lines ~from ~to_ lines (b : Ast.block) : Ast.block =
  Ast.map_block
    (fun s -> if List.mem s.Ast.line lines then R.rename_stmt ~from ~to_ s else s)
    b

let reduction_lines_in r op (b : Ast.block) : int list =
  Ast.fold_block
    (fun acc (s : Ast.stmt) ->
      match Static.reduction_of_stmt s with
      | Some (r', op') when r' = r && op' = op -> s.line :: acc
      | _ -> acc)
    [] b
  |> List.rev

let atomicize prog line =
  match
    R.replace_lines prog ~lines:[ line ]
      ~f:
        (List.map (fun (s : Ast.stmt) ->
             match s.node with
             | Ast.Assign (l, e) -> { s with node = Ast.Atomic_assign (l, e) }
             | _ -> s))
  with
  | Some p -> p
  | None -> prog

(* ---- shape: what may run in a spawned thread ---- *)

(* The one shape check, for a loop body about to be chunked and for a
   statement about to become a task: code that synchronizes, returns from
   the enclosing function or breaks out of its loop cannot move into a
   thread, and a [rand] draw would come out of the stream in another order. *)
let movable prog (b : Ast.block) =
  if R.has_sync b then Error "body already contains synchronization"
  else if R.has_return b then Error "body returns from the enclosing function"
  else if R.has_toplevel_break b then Error "body breaks out of the loop"
  else if List.exists Ast.draws (R.reachable_calls prog b) then
    Error "body calls rand (chunking would perturb the stream)"
  else Ok ()

(* A statement that may become one thread of a [Par]: movable, and not an
   array declaration or a [Free], whose scope a thread would change (only
   scalar declarations are hoisted, by {!spawn}). *)
let task_shaped prog (s : Ast.stmt) =
  (match s.node with Ast.Decl_arr _ | Ast.Free _ -> false | _ -> true)
  && Result.is_ok (movable prog [ s ])

(* ---- loop chunking (shared by DOALL and DOACROSS) ----

   A chunk k of C covers iterations [lo + floor(k*n/C)*step,
   lo + floor((k+1)*n/C)*step) with n the trip count; the boundaries are
   monotone and reach lo + n*step, so exactly the last non-empty chunk
   satisfies [__c1 == __end] — the guard the lastprivate write-back uses. *)

let bounds_prelude (f : Ast.for_loop) ~step ~chunks ~k =
  B.[
    decl "__n" ((f.hi - f.lo + i (step -$ 1)) / i step);
    decl "__c0" (f.lo + (i k * v "__n" / i chunks) * i step);
    decl "__c1" (f.lo + (i (k +$ 1) * v "__n" / i chunks) * i step);
    decl "__end" (f.lo + (v "__n" * i step));
  ]

(* More chunks than iterations would emit degenerate empty-range arms
   ([__c0 == __c1]): each still costs a thread spawn, and in DOACROSS each
   allocates a zero-length carry buffer and a useless ready-flag hop. When
   the bounds are static we clamp the chunk count to the trip count (floor
   1, so a zero-trip loop still produces one well-formed arm). Dynamic
   bounds pass through: the boundary formula keeps empty chunks correct,
   just wasteful, and the trip count is unknowable here. *)
let clamp_chunks (f : Ast.for_loop) ~step ~chunks =
  match (f.lo, f.hi) with
  | Ast.Int l, Ast.Int h ->
      let trip = if h > l then (h - l + step - 1) / step else 0 in
      max 1 (min chunks trip)
  | _ -> chunks

(* The loop prologue of DOALL and DOACROSS: the suggested loop once its
   shape is safe to chunk, its constant step, the chunk count clamped to
   the trip count, and the clamp's wording for the plan notes. *)
let loop_prologue prog (la : Loops.analysis) ~chunks =
  let* f =
    match R.find_by_line prog ~line:la.Loops.loop_line with
    | Some { Ast.node = Ast.For f; _ } -> Ok f
    | Some _ -> Error "suggested region is not a for loop"
    | None -> Error "loop line not found"
  in
  let* step =
    match f.step with
    | Ast.Int s when s > 0 -> Ok s
    | _ -> Error "non-constant or non-positive step"
  in
  let* () =
    if R.expr_has_call f.lo || R.expr_has_call f.hi then
      Error "calls in loop bounds"
    else if la.region.Static.index_written_in_body then
      Error "loop index written in body"
    else movable prog f.body
  in
  let clamped = clamp_chunks f ~step ~chunks in
  Ok
    ( f,
      step,
      clamped,
      if clamped < chunks then
        Printf.sprintf " (clamped from %d to the trip count)" chunks
      else "" )

(* The one chunked-[Par] emitter: the loop at [line] becomes a [Par] of
   [chunks] arms, arm k binding its slice's bounds and then running [arm k].
   [arm] is called once per chunk, so every arm gets statements of its own
   (numbering assigns lines in place). *)
let chunked_par prog ~line (f : Ast.for_loop) ~step ~chunks arm =
  let par =
    B.par
      (List.init chunks (fun k -> bounds_prelude f ~step ~chunks ~k @ arm k))
  in
  match R.replace_lines prog ~lines:[ line ] ~f:(fun _ -> [ par ]) with
  | Some p -> Ok p
  | None -> Error "loop statement vanished during rewriting"

(* One chunk's slice of the iteration space, running a copy of [body]. *)
let slice (f : Ast.for_loop) ~step body =
  B.for_step f.index (B.v "__c0") (B.v "__c1") (B.i step) (R.copy_block body)

(* DOALL chunks: each arm declares its reduction accumulators and private
   copies, runs its slice, combines the accumulators atomically and, in the
   last non-empty chunk, writes the privates back. With no reductions and
   no privates this is plain chunking. *)
let doall_par prog ~line f ~step ~chunks ~reds ~privates body =
  chunked_par prog ~line f ~step ~chunks (fun _ ->
      List.concat_map
        (function
          | `Atomic _ -> []
          | `Local (r, _, ident, _, true) ->
              [ B.decl_arr ("__red_" ^ r) (B.len r);
                B.for_ "__ri" (B.i 0) (B.len r)
                  [ B.seti ("__red_" ^ r) (B.v "__ri") (B.i ident) ] ]
          | `Local (r, _, ident, _, false) -> [ B.decl ("__red_" ^ r) (B.i ident) ])
        reds
      @ List.map (fun p -> B.decl ("__pv_" ^ p) (B.i 0)) privates
      @ [ slice f ~step body ]
      @ List.concat_map
          (function
            | `Atomic _ -> []
            | `Local (r, op, _, _, true) ->
                [ B.for_ "__ri" (B.i 0) (B.len r)
                    [ B.atomic_seti r (B.v "__ri")
                        (Ast.Bin (op, Ast.Idx (r, Ast.Var "__ri"),
                                  Ast.Idx ("__red_" ^ r, Ast.Var "__ri"))) ] ]
            | `Local (r, op, _, _, false) ->
                [ B.atomic_set r (Ast.Bin (op, Ast.Var r, Ast.Var ("__red_" ^ r))) ])
          reds
      @ List.map
          (fun p ->
            B.when_
              B.(v "__c1" == v "__end" && v "__c0" < v "__c1")
              [ B.atomic_set p (B.v ("__pv_" ^ p)) ])
          privates)

(* ---- DOALL ---- *)

let doall ~chunks prog (la : Loops.analysis) :
    (Ast.program * string list, string) result =
  let* () =
    match la.Loops.cls with
    | Loops.Doall | Loops.Doall_reduction -> Ok ()
    | _ -> Error "loop is not classified DOALL"
  in
  let* f, step, chunks, clamped = loop_prologue prog la ~chunks in
  let arrays = array_names prog in
  let bound_reads =
    Static.expr_read_vars f.lo (Static.expr_read_vars f.hi SS.empty)
  in
  let* () =
    if List.exists (fun pv -> SS.mem pv arrays) la.private_vars then
      Error "array privatization unsupported"
    else if List.exists (fun pv -> SS.mem pv bound_reads) la.private_vars then
      Error "privatizable variable feeds the loop bounds"
    else Ok ()
  in
  let global_reductions = Static.reduction_only_vars prog in
  (* Reduction plan: per variable either a per-chunk accumulator (update in
     the body) or in-place atomicization of a callee's reduction statement. *)
  let* red_plans =
    List.fold_left
      (fun acc (r, op) ->
        let* acc = acc in
        let* ident =
          match identity_of_op op with
          | Some n -> Ok n
          | None -> Error ("no identity for reduction op on " ^ r)
        in
        let body_lines = reduction_lines_in r op f.body in
        if body_lines <> [] then
          Ok (`Local (r, op, ident, body_lines, SS.mem r arrays) :: acc)
        else
          match Hashtbl.find_opt global_reductions r with
          | Some (op', lines) when op' = op -> Ok (`Atomic (r, lines) :: acc)
          | _ -> Error ("no reduction statement found for " ^ r))
      (Ok []) la.reduction_vars
  in
  let red_plans = List.rev red_plans in
  (* Rewrite the body: reduction statements to accumulators, private scalars
     to per-chunk names. *)
  let* body =
    List.fold_left
      (fun body plan ->
        let* body = body in
        match plan with
        | `Atomic (r, _) ->
            if R.mentions body r then
              Error ("callee-reduced variable " ^ r ^ " also accessed in body")
            else Ok body
        | `Local (r, _, _, lines, _) ->
            let body =
              rename_at_lines ~from:r ~to_:("__red_" ^ r) lines body
            in
            if R.mentions body r then
              Error ("reduction variable " ^ r ^ " accessed outside its reduction")
            else Ok body)
      (Ok f.body) red_plans
  in
  let* () =
    let unconditional p =
      List.exists
        (fun (s : Ast.stmt) ->
          match s.node with
          | Ast.Assign (Lvar x, _) | Ast.Atomic_assign (Lvar x, _) -> x = p
          | Ast.Decl (x, _) -> x = p
          | _ -> false)
        body
    in
    match List.find_opt (fun p -> not (unconditional p)) la.private_vars with
    | Some p -> Error ("conditionally-written private variable " ^ p)
    | None -> Ok ()
  in
  let body =
    List.fold_left
      (fun b p -> R.rename_block ~from:p ~to_:("__pv_" ^ p) b)
      body la.private_vars
  in
  let* prog =
    doall_par prog ~line:la.loop_line f ~step ~chunks ~reds:red_plans
      ~privates:la.private_vars body
  in
  let prog =
    List.fold_left
      (fun prog plan ->
        match plan with
        | `Atomic (_, lines) -> List.fold_left atomicize prog lines
        | `Local _ -> prog)
      prog red_plans
  in
  let notes =
    Printf.sprintf "%d chunks over iteration space%s" chunks clamped
    :: List.map
         (function
           | `Local (r, op, _, _, _) ->
               Printf.sprintf "reduction %s (%s) via per-chunk accumulator" r
                 (Ast.string_of_binop op)
           | `Atomic (r, lines) ->
               Printf.sprintf "reduction %s made atomic at callee line(s) %s" r
                 (String.concat "," (List.map string_of_int lines)))
         red_plans
    @ List.map (fun p -> "privatized " ^ p ^ " (guarded lastprivate)") la.private_vars
  in
  Ok (prog, notes)

(* ---- DOACROSS ---- *)

let doacross ~chunks ~deps prog (la : Loops.analysis) :
    (Ast.program * string list, string) result =
  let* f, step, chunks, clamped = loop_prologue prog la ~chunks in
  let body_lines = List.concat_map TD.stmt_lines f.body in
  let carried =
    Dep.Set_.in_range deps ~lo:la.region.Static.first_line
      ~hi:la.region.Static.last_line
    |> List.filter (fun (d : Dep.t) ->
           d.carrier = Some la.loop_line && d.var <> f.index && d.dtype <> Dep.Init)
  in
  let* () = if carried = [] then Error "no carried dependences recorded" else Ok () in
  let endpoints =
    List.concat_map (fun (d : Dep.t) -> [ d.src_line; d.sink_line ]) carried
    |> List.sort_uniq compare
  in
  let* () =
    if List.for_all (fun l -> List.mem l body_lines) endpoints then Ok ()
    else Error "carried dependence endpoint outside the loop body (callee?)"
  in
  let arrays = array_names prog in
  let handoff =
    List.filter_map
      (fun (d : Dep.t) -> if d.dtype = Dep.Raw then Some d.var else None)
      carried
    |> List.sort_uniq compare
  in
  let* () =
    match List.find_opt (fun v -> SS.mem v arrays) handoff with
    | Some v -> Error ("array-carried dependence on " ^ v)
    | None -> Ok ()
  in
  (* Fission point: the shortest suffix of the body covering every carried
     endpoint. The prefix A is then dependence-free across iterations and
     runs as DOALL; the suffix B executes serialized in chunk order. *)
  let stmt_line_sets = List.map (fun s -> TD.stmt_lines s) f.body in
  let n_stmts = List.length f.body in
  let covered_from p =
    let lines =
      List.concat (List.filteri (fun i _ -> i >= p) stmt_line_sets)
    in
    List.for_all (fun l -> List.mem l lines) endpoints
  in
  let rec find_p p = if p < n_stmts && covered_from (p + 1) then find_p (p + 1) else p in
  let p = find_p 0 in
  let* () =
    if p = 0 then Error "no dependence-free prefix to overlap with the carried chain"
    else Ok ()
  in
  let a_stmts = List.filteri (fun i _ -> i < p) f.body in
  let b_stmts = List.filteri (fun i _ -> i >= p) f.body in
  (* Values produced by top-level [Decl]s in A and consumed in B travel
     through a per-chunk buffer indexed by iteration offset. *)
  let* buffered =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        let* acc = acc in
        match s.node with
        | Ast.Decl (x, _) when R.mentions b_stmts x -> Ok (x :: acc)
        | Ast.Decl_arr (x, _) when R.mentions b_stmts x ->
            Error ("local array " ^ x ^ " flows from prefix into carried suffix")
        | _ -> Ok acc)
      (Ok []) a_stmts
  in
  let buffered = List.rev buffered in
  let buf x = "__dx_buf_" ^ x in
  let a_body =
    List.concat_map
      (fun (s : Ast.stmt) ->
        match s.node with
        | Ast.Decl (x, _) when List.mem x buffered ->
            [ s; B.seti (buf x) B.(v f.index - v "__c0") (B.v x) ]
        | _ -> [ s ])
      a_stmts
  in
  let b_body =
    List.map (fun x -> B.decl x B.((buf x).%[v f.index - v "__c0"])) buffered
    @ List.fold_left
        (fun b v -> R.rename_block ~from:v ~to_:("__dx_" ^ v) b)
        b_stmts handoff
  in
  let mutex = "__dx_m" in
  let rdy k = "__dx_rdy" ^ string_of_int k in
  let* prog =
    chunked_par prog ~line:la.loop_line f ~step ~chunks (fun k ->
        List.map (fun x -> B.decl_arr (buf x) B.(v "__c1" - v "__c0")) buffered
        @ [ slice f ~step a_body ]
        @ (if k = 0 then []
           else
             [ B.decl "__dx_t" (B.i 0);
               B.while_
                 B.(v "__dx_t" == i 0)
                 [ B.lock mutex; B.set "__dx_t" (B.v (rdy k)); B.unlock mutex ] ])
        @ [ B.lock mutex ]
        @ List.map (fun v -> B.decl ("__dx_" ^ v) (B.v v)) handoff
        @ [ B.unlock mutex ]
        @ [ slice f ~step b_body ]
        @ [ B.lock mutex ]
        @ List.map (fun v -> B.set v (B.v ("__dx_" ^ v))) handoff
        @ (if k < chunks - 1 then [ B.set (rdy (k + 1)) (B.i 1) ] else [])
        @ [ B.unlock mutex ])
  in
  let prog =
    { prog with
      globals =
        prog.globals
        @ List.init (chunks - 1) (fun k -> Ast.Gscalar (rdy (k + 1), 0)) }
  in
  let notes =
    [ Printf.sprintf
        "%d pipelined chunks%s: %d free statement(s) overlap, %d carried \
         statement(s) serialized"
        chunks clamped p (n_stmts - p);
      Printf.sprintf "carried scalar(s) %s handed off through locked sections"
        (String.concat "," handoff) ]
    @ (if buffered <> [] then
         [ Printf.sprintf "prefix value(s) %s buffered per chunk"
             (String.concat "," buffered) ]
       else [])
  in
  Ok (prog, notes)

(* ---- tasks: effects and the Par spawner (SPMD fork-join and MPMD) ---- *)

(* Full read/write effect of one statement and of every statement nested
   in it: their [Static.effects] (callee effects included), declaration
   binders as writes, and a loop's index read and written. The top-down item
   sets only cover the region's construction variables at the direct level;
   task statements that touch shared state inside callees need this
   interprocedural view. *)
let stmt_effects (static : Static.t) (s : Ast.stmt) : SS.t * SS.t =
  Ast.fold_block
    (fun (reads, writes) (s : Ast.stmt) ->
      let fx = Static.effects static s in
      let reads = SS.union fx.fx_reads reads in
      let writes = SS.union fx.fx_writes writes in
      let writes = SS.union (SS.of_list (Option.to_list fx.fx_binds)) writes in
      match s.node with
      | Ast.For f -> (SS.add f.index reads, SS.add f.index writes)
      | _ -> (reads, writes))
    (SS.empty, SS.empty) [ s ]

(* Variables one task writes and another reads or writes, over every pair
   of statements: the tasks' shared state. *)
let conflicts static run =
  let rec pairs acc = function
    | [] -> acc
    | (r1, w1) :: rest ->
        let acc =
          List.fold_left
            (fun acc (r2, w2) ->
              SS.union acc (SS.union (SS.inter w1 (SS.union r2 w2)) (SS.inter r1 w2)))
            acc rest
        in
        pairs acc rest
  in
  pairs SS.empty (List.map (stmt_effects static) run)

(* The one [Par] spawner: each statement of [run] becomes a thread; a
   declaration is hoisted in front of the [Par] as a zero-initialised
   scalar its thread assigns, so the result outlives the thread. *)
let spawn run =
  let hoists, threads =
    List.fold_right
      (fun (ts : Ast.stmt) (hs, bs) ->
        match ts.node with
        | Ast.Decl (x, e) -> (B.decl x (B.i 0) :: hs, [ B.set x e ] :: bs)
        | _ -> (hs, [ ts ] :: bs))
      run ([], [])
  in
  hoists @ [ B.par threads ]

(* ---- SPMD: recursive fork-join and taskloops ---- *)

(* Replace the first run of >= 2 consecutive task statements in the
   function body with hoisted result declarations plus a [Par]. *)
let forkjoin static prog fname task_lines : (Ast.program * string list, string) result =
  let eligible (s : Ast.stmt) =
    List.mem s.line task_lines && task_shaped prog s
  in
  let spawned = ref None in
  let rec go (b : Ast.block) : Ast.block =
    match b with
    | s :: rest when Option.is_none !spawned && eligible s ->
        let rec take acc = function
          | t :: more when eligible t -> take (t :: acc) more
          | more -> (List.rev acc, more)
        in
        let run, rest' = take [ s ] rest in
        if List.length run >= 2 then begin
          spawned := Some run;
          spawn run @ rest'
        end
        else run @ go rest'
    | ({ node = Ast.Par _; _ } as s) :: rest when Option.is_none !spawned ->
        s :: go rest
    | s :: rest when Option.is_none !spawned ->
        let s = Ast.map_stmt ~block:go s in
        s :: go rest
    | b -> b
  in
  let funcs =
    List.map
      (fun (g : Ast.func) -> if g.fname = fname then { g with body = go g.body } else g)
      prog.Ast.funcs
  in
  match !spawned with
  | None -> Error "no consecutive pair of task statements"
  | Some run ->
      (* The forked tasks run unsynchronized, so any variable one task writes
         and another touches must be a reduction-only global (a recursive
         branch-and-bound minimum, a task counter): its update statements are
         made atomic; any other shared write rejects the fork. *)
      let greds = Static.reduction_only_vars prog in
      let* atomic_lines =
        SS.fold
          (fun v acc ->
            let* ls = acc in
            match Hashtbl.find_opt greds v with
            | Some (_, lines) -> Ok (lines @ ls)
            | None -> Error ("tasks share non-reduction variable " ^ v))
          (conflicts static run)
          (Ok [])
      in
      let prog = List.fold_left atomicize { prog with funcs } atomic_lines in
      let notes =
        Printf.sprintf "recursive tasks of %s spawned as Par threads" fname
        ::
        (if atomic_lines = [] then []
         else
           [ Printf.sprintf "shared reduction update(s) made atomic at line(s) %s"
               (String.concat ","
                  (List.map string_of_int (List.sort_uniq compare atomic_lines))) ])
      in
      Ok (prog, notes)

let spmd ~chunks prog (report : Suggestion.report) (sp : Tasks.spmd) =
  match sp.Tasks.s_kind with
  | `Loop_tasks _ -> (
      match
        List.find_opt
          (fun (la : Loops.analysis) -> la.region.Static.id = sp.s_region)
          report.loops
      with
      | Some la -> doall ~chunks prog la
      | None -> Error "no loop analysis for taskloop region")
  | `Recursive_forkjoin fname ->
      forkjoin report.static prog fname sp.s_task_lines

(* ---- MPMD: task-graph stages ---- *)

(* A stage becomes one [Par] when its members are consecutive items of the
   region, task-shaped, and pairwise independent at the effect level: no
   statement may write a variable another reads or writes, callee effects
   counted. That check subsumes one over the items' own sets: an item's
   reads and writes are its statement's direct effects and binder plus its
   nested regions' globals, restricted to the region's variables, and all
   of them are in [stmt_effects], so an item conflict is an effect
   conflict. *)
let mpmd static prog (m : Tasks.mpmd) :
    (Ast.program * string list, string) result =
  let* () =
    if m.Tasks.m_shape = Tasks.Taskgraph then Ok ()
    else Error "pipeline-shaped task graphs unsupported"
  in
  let consecutive lines =
    let at l = List.find_index (fun (it : TD.item) -> it.it_line = l) m.m_items in
    match List.sort compare (List.map at lines) with
    | Some i :: _ as idxs ->
        idxs = List.init (List.length idxs) (fun k -> Some (i + k))
    | _ -> false
  in
  let try_stage cur stage =
    let lines = List.sort compare stage in
    if List.length lines < 2 || not (consecutive lines) then None
    else
      match
        R.replace_lines cur ~lines ~f:(fun seg ->
            if
              List.for_all (task_shaped prog) seg
              && SS.is_empty (conflicts static seg)
            then spawn seg
            else seg)
      with
      | Some next when next <> cur -> Some (next, List.length lines)
      | _ -> None
  in
  let transformed, widths =
    List.fold_left
      (fun (cur, ws) stage ->
        match try_stage cur stage with
        | Some (next, w) -> (next, w :: ws)
        | None -> (cur, ws))
      (prog, []) m.m_stages
  in
  if widths = [] then Error "no stage with a consecutive independent run"
  else
    Ok
      ( transformed,
        [ Printf.sprintf "%d task-graph stage(s) spawned as Par (widths %s)"
            (List.length widths)
            (String.concat "," (List.map string_of_int (List.rev widths))) ] )

(* ---- naive (deliberately wrong) transform: the validation fixture ---- *)

(* Chunk a loop with NO privatization, reduction or carried-dependence
   handling: the DOALL emitter with neither. On any loop that is not plain
   DOALL this miscompiles — the fixture differential validation must
   reject. *)
let naive_doall ?(chunks = 4) (prog : Ast.program) ~line :
    (Ast.program, string) result =
  let prog = R.copy_program prog in
  match R.find_by_line prog ~line with
  | Some { Ast.node = Ast.For ({ step = Ast.Int step; _ } as f); _ }
    when step > 0 ->
      doall_par prog ~line f ~step ~chunks ~reds:[] ~privates:[] f.body
      |> Result.map (fun (p : Ast.program) ->
             B.number { p with pname = p.pname ^ "_naive" })
  | Some _ -> Error "not a constant-step for loop"
  | None -> Error "no statement at that line"

(* ---- entry points ---- *)

let apply ?(chunks = 4) (report : Suggestion.report) (s : Suggestion.t) :
    (t, string) result =
  let prog = R.copy_program report.program in
  let deps = report.profile.Profiler.Serial.deps in
  let result =
    match s.kind with
    | Suggestion.Sdoall la -> doall ~chunks prog la
    | Sdoacross la -> doacross ~chunks ~deps prog la
    | Sspmd sp -> spmd ~chunks prog report sp
    | Smpmd m -> mpmd report.static prog m
  in
  match result with
  | Error e ->
      Obs.Counter.incr c_unsupported;
      Error e
  | Ok (prog', notes) ->
      Obs.Counter.incr c_applied;
      let prog' = B.number { prog' with pname = prog'.pname ^ "_par" } in
      let region = Static.region report.static s.region in
      Ok
        { original = report.program;
          transformed = prog';
          plan =
            { p_suggestion = s;
              p_line = region.Static.first_line;
              p_chunks = chunks;
              p_notes = notes } }

let apply_first ?chunks (report : Suggestion.report) :
    (t * (Suggestion.t * string) list, (Suggestion.t * string) list) result =
  let rec go skipped = function
    | [] -> Error (List.rev skipped)
    | s :: rest -> (
        match apply ?chunks report s with
        | Ok t -> Ok (t, List.rev skipped)
        | Error e -> go ((s, e) :: skipped) rest)
  in
  go [] report.suggestions

let plan_to_string (p : plan) =
  Printf.sprintf "%s @ region %d (line %d), %d chunks\n%s"
    (Suggestion.kind_to_string p.p_suggestion.kind) p.p_suggestion.region
    p.p_line p.p_chunks
    (String.concat "" (List.map (fun n -> "  - " ^ n ^ "\n") p.p_notes))
