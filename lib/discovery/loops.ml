(* Loop parallelism discovery (§4.1).

   DOALL: no iteration of the loop truly depends on a previous iteration —
   i.e. no RAW dependence carried at the loop, after discounting dependences
   on the loop index (local to the loop unless the body writes it, §3.2.5)
   and on recognised reduction variables (resolvable by parallel reduction).
   Carried WAR/WAW are name dependences, resolvable by privatisation; the
   affected variables are reported as the private set.

   DOACROSS: carried RAW dependences exist, but parts of the loop body are
   not involved in them, so consecutive iterations can partially overlap
   (pipeline the body CUs). A loop whose body is a single CU entirely tied
   into the carried dependence is sequential. *)

module Dep = Profiler.Dep
module Static = Mil.Static
module SS = Static.SS

type loop_class =
  | Doall                  (* fully independent iterations *)
  | Doall_reduction        (* independent after parallel reduction *)
  | Doacross               (* carried deps, partial overlap possible *)
  | Sequential

let class_to_string = function
  | Doall -> "DOALL"
  | Doall_reduction -> "DOALL(reduction)"
  | Doacross -> "DOACROSS"
  | Sequential -> "sequential"

type analysis = {
  region : Static.region;
  loop_line : int;
  cls : loop_class;
  blocking : Dep.t list;        (* carried RAW deps that prevent DOALL *)
  reduction_vars : (string * Mil.Ast.binop) list; (* used by carried deps *)
  private_vars : string list;   (* carried WAR/WAW name-dependence targets *)
  body_cus : Cunit.Cu.t list;
  free_cus : int;               (* body CUs not touched by blocking deps *)
  iterations : int;             (* total iterations observed (from PET) *)
  instructions : int;           (* dynamic memory instructions in the loop *)
}

(* Reduction statements anywhere in the loop's subtree, with their lines: a
   sum accumulated in a nested loop is still a reduction over the outer loop.
   The lines let the classifier excuse only carried dependences whose
   dependent read *is* the reduction update itself. *)
let rec loop_level_reductions (st : Static.t) rid =
  let r = st.regions.(rid) in
  let here =
    List.filter_map
      (fun (s : Mil.Ast.stmt) ->
        match Static.reduction_of_stmt s with
        | Some (x, op) -> Some (x, op, s.Mil.Ast.line)
        | None -> None)
      r.stmts
  in
  List.fold_left (fun acc cid -> acc @ loop_level_reductions st cid) here r.children

let analyze_loop ~global_reductions (st : Static.t)
    (cures : Cunit.Top_down.result) (deps : Dep.Set_.t) (pet : Profiler.Pet.t)
    (r : Static.region) : analysis =
  let loop_line = r.first_line in
  let index_var =
    match r.kind with
    | Static.Rloop { index = Some ix; _ } when not r.index_written_in_body -> Some ix
    | _ -> None
  in
  let reductions = loop_level_reductions st r.id in
  (* A dependence carried by this loop can live entirely inside a callee,
     outside the region's own line range (a recursive task counter updated
     three frames down still blocks — or reduces over — the loop). The
     carrier attribution already proves both endpoints executed inside an
     iteration pair of this loop, so collect by carrier, not line range. *)
  let carried =
    let acc = ref [] in
    Dep.Set_.iter
      (fun d _ -> if d.Dep.carrier = Some loop_line then acc := d :: !acc)
      deps;
    List.rev !acc
  in
  let is_index v = index_var = Some v in
  let carried_raw =
    List.filter (fun d -> d.Dep.dtype = Dep.Raw && not (is_index d.Dep.var)) carried
  in
  (* A carried RAW is resolvable by parallel reduction when the variable is
     reduced at loop level, or is a program-wide reduction-only variable and
     the dependent read is itself one of the reduction statements — which
     covers reductions performed inside callees (recursive task counters). *)
  let cond_vars =
    match r.kind with
    | Static.Rloop { cond_vars; _ } -> cond_vars
    | Static.Rfunc _ | Static.Rbranch _ -> SS.empty
  in
  let reduction_of d =
    (* A variable the loop condition reads controls the iteration space; a
       carried dependence on it is never reducible. Otherwise a carried RAW
       is reducible when its dependent read is itself a reduction update of
       the variable — either somewhere in this loop's subtree, or anywhere
       in the program for reduction-only variables (updates in callees). *)
    if SS.mem d.Dep.var cond_vars && index_var <> Some d.Dep.var then None
    else
      match
        List.find_opt
          (fun (x, _, line) -> x = d.Dep.var && line = d.Dep.sink_line)
          reductions
      with
      | Some (_, op, _) -> Some op
      | None -> (
          match Hashtbl.find_opt global_reductions d.Dep.var with
          | Some (op, lines) when List.mem d.Dep.sink_line lines -> Some op
          | Some _ | None -> None)
  in
  let blocking, reducible =
    List.partition (fun d -> reduction_of d = None) carried_raw
  in
  let reduction_vars =
    List.sort_uniq compare
      (List.filter_map
         (fun d ->
           match reduction_of d with
           | Some op -> Some (d.Dep.var, op)
           | None -> None)
         reducible)
  in
  let reduced_vars = List.map (fun (x, _, _) -> x) reductions in
  let private_vars =
    List.filter
      (fun d ->
        (d.Dep.dtype = Dep.War || d.Dep.dtype = Dep.Waw)
        && (not (is_index d.Dep.var))
        && (not (List.mem d.Dep.var reduced_vars))
        && not (List.mem d.Dep.var (List.map fst reduction_vars)))
      carried
    |> List.map (fun d -> d.Dep.var)
    |> List.sort_uniq compare
  in
  let body_cus = Cunit.Top_down.cus_of_region cures r.id in
  let blocked_lines =
    List.concat_map (fun d -> [ d.Dep.sink_line; d.Dep.src_line ]) blocking
  in
  let free_cus =
    List.length
      (List.filter
         (fun cu -> not (List.exists (fun l -> Cunit.Cu.mem_line cu l) blocked_lines))
         body_cus)
  in
  let cls =
    if blocking = [] then if reduction_vars = [] then Doall else Doall_reduction
    else if free_cus > 0 || List.length body_cus > 1 then Doacross
    else Sequential
  in
  let iterations, instructions =
    Profiler.Pet.totals pet (Profiler.Pet.Lnode loop_line)
  in
  { region = r; loop_line; cls; blocking; reduction_vars; private_vars;
    body_cus; free_cus; iterations; instructions }

let class_counter = function
  | Doall -> Obs.counter "discovery.loops.doall"
  | Doall_reduction -> Obs.counter "discovery.loops.doall_reduction"
  | Doacross -> Obs.counter "discovery.loops.doacross"
  | Sequential -> Obs.counter "discovery.loops.sequential"

(* Analyse every loop of the program that was actually executed. *)
let analyze_all (st : Static.t) (cures : Cunit.Top_down.result)
    (deps : Dep.Set_.t) (pet : Profiler.Pet.t) : analysis list =
  Obs.Span.with_ ~phase:"discovery.loops" @@ fun () ->
  let global_reductions = Static.reduction_only_vars st.Static.program in
  let analyses =
    Static.loop_regions st
    |> List.filter_map (fun r ->
           let iters, _ =
             Profiler.Pet.totals pet (Profiler.Pet.Lnode r.Static.first_line)
           in
           if iters = 0 then None
           else Some (analyze_loop ~global_reductions st cures deps pet r))
  in
  List.iter (fun a -> Obs.Counter.incr (class_counter a.cls)) analyses;
  analyses

let to_string a =
  Printf.sprintf
    "loop@%d: %s (%d iters, %d instr)%s%s%s" a.loop_line
    (class_to_string a.cls) a.iterations a.instructions
    (if a.reduction_vars = [] then ""
     else
       Printf.sprintf " reduction(%s)"
         (String.concat "," (List.map fst a.reduction_vars)))
    (if a.private_vars = [] then ""
     else Printf.sprintf " private(%s)" (String.concat "," a.private_vars))
    (if a.blocking = [] then ""
     else
       Printf.sprintf " blocked-by[%s]"
         (String.concat "; "
            (List.map (Dep.to_string ~threads:false)
               (List.filteri (fun i _ -> i < 4) a.blocking))))
