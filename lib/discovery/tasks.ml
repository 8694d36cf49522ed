(* Task parallelism discovery (§4.2).

   SPMD-style tasks: the same computation applied to independent work items —
   loop iterations that spawn independent heavy work (BOTS-style `omp task`
   in a loop), or recursive calls whose CUs are mutually independent in the
   CU graph (fib/nqueens-style fork-join).

   MPMD-style tasks: different computations that may run concurrently —
   found by levelling a region's items by their data flow into stages (Fig
   4.5): a stage with two or more substantial tasks is an antichain, making
   a task graph; a chain of single-task stages is a pipeline. *)

module Dep = Profiler.Dep
module Static = Mil.Static

type spmd = {
  s_kind : [ `Loop_tasks of int | `Recursive_forkjoin of string ];
  s_region : int;
  s_task_lines : int list;     (* lines of the task bodies / call sites *)
  s_evidence : string;
}

type mpmd_shape = Taskgraph | Pipeline

type mpmd = {
  m_region : int;
  m_shape : mpmd_shape;
  m_stages : int list list;    (* member item lines per stage, in dataflow order *)
  m_width : int;               (* size of the largest antichain *)
  m_evidence : string;
  m_items : Cunit.Top_down.item list;  (* the region's items the stages level *)
}

(* ---- SPMD ---- *)

let call_sites_to (f : string) (block : Mil.Ast.block) : int list =
  Mil.Ast.fold_block
    (fun acc (s : Mil.Ast.stmt) ->
      if List.mem f (Mil.Rewrite.stmt_calls s []) then s.line :: acc else acc)
    [] block
  |> List.rev

(* Recursive fork-join: a function with >=2 recursive call sites whose
   subtasks are mutually independent (the classic fib pattern, Fig 4.3).

   Independence is judged on the profiled dependences between the CUs
   containing the call sites: the later call's CU must not truly depend (RAW)
   on anything the earlier call's CU produced *at or after* the call itself.
   Values computed before the first call (e.g. the midpoint both halves of a
   divide-and-conquer receive) are task inputs, captured by value at spawn,
   and do not serialise the tasks; neither does RAW flow through
   reduction-only variables (a best-cost bound or a node counter). *)
let c_spmd = Obs.counter "discovery.tasks.spmd"
let c_mpmd = Obs.counter "discovery.tasks.mpmd"

let recursive_forkjoin (st : Static.t) (cures : Cunit.Top_down.result)
    (deps : Dep.Set_.t) : spmd list =
  Obs.Span.with_ ~phase:"discovery.tasks" @@ fun () ->
  let global_reductions = Static.reduction_only_vars st.Static.program in
  let found =
  List.filter_map
    (fun (f : Mil.Ast.func) ->
      let sites = call_sites_to f.Mil.Ast.fname f.Mil.Ast.body in
      if List.length sites < 2 then None
      else begin
        let rid = Static.func_region st f.Mil.Ast.fname in
        let serialises s1 s2 =
          (* s1 executes before s2. The later task is serialised when the
             spawning statement itself consumes a value produced at or after
             the first call — e.g. y = f(x) where x = f(...) just above.
             (Dependences between the tasks' own effects flow through callee
             source lines shared by both subtrees and cannot be attributed to
             either site; like DiscoPoP, we rely on the profiled dependences
             of the spawning function's body.) *)
          let blocked = ref false in
          Dep.Set_.iter
            (fun d _ ->
              if
                d.Dep.dtype = Dep.Raw
                && (not (Hashtbl.mem global_reductions d.Dep.var))
                && d.Dep.sink_line = s2
                && d.Dep.src_line >= s1
                && d.Dep.src_line < s2
              then blocked := true)
            deps;
          !blocked
        in
        let sorted = List.sort_uniq compare sites in
        let rec pairs = function
          | [] | [ _ ] -> true
          | s1 :: rest ->
              List.for_all (fun s2 -> not (serialises s1 s2)) rest && pairs rest
        in
        if pairs sorted then
          Some
            { s_kind = `Recursive_forkjoin f.Mil.Ast.fname;
              s_region = rid;
              s_task_lines = sorted;
              s_evidence =
                Printf.sprintf
                  "%d recursive call sites with no true dependence between tasks"
                  (List.length sorted) }
        else None
      end)
    cures.Cunit.Top_down.static.Static.program.Mil.Ast.funcs
  in
  Obs.Counter.add c_spmd (List.length found);
  found

(* Loop-body tasks: a DOALL(-with-reduction) loop whose body performs heavy
   work through calls becomes an SPMD task loop (one task per iteration). *)
let loop_tasks (loops : Loops.analysis list) : spmd list =
  Obs.Span.with_ ~phase:"discovery.tasks" @@ fun () ->
  let found =
    List.filter_map
      (fun (a : Loops.analysis) ->
        let heavy =
          List.exists
            (fun (cu : Cunit.Cu.t) -> cu.Cunit.Cu.contains_call)
            a.Loops.body_cus
        in
        match a.Loops.cls with
        | Loops.Doall | Loops.Doall_reduction when heavy ->
            Some
              { s_kind = `Loop_tasks a.Loops.loop_line;
                s_region = a.Loops.region.Static.id;
                s_task_lines = [ a.Loops.loop_line ];
                s_evidence = "independent iterations calling worker functions" }
        | _ -> None)
      loops
  in
  Obs.Counter.add c_spmd (List.length found);
  found

(* ---- MPMD ---- *)

(* MPMD task-graph extraction over a region's item-level dataflow graph.

   Algorithm 3's CU partition merges adjacent statements that do not violate
   the read-compute-write pattern — including mutually independent stages
   like FaceDetection's two filters — so the CU sequence alone cannot expose
   task-graph width. The items of the region (statements, with nested
   regions collapsed and interprocedural read/write sets attached) carry
   exactly the dataflow needed: item B depends on item A when B reads a
   variable A wrote earlier. Levelling that DAG yields the stage structure
   of Fig 4.5: an antichain of width >= 2 is a task graph, a substantial
   chain a pipeline. *)
let mpmd_of_region (cures : Cunit.Top_down.result) (rid : int) : mpmd option =
  Obs.Span.with_ ~phase:"discovery.tasks" @@ fun () ->
  let st = cures.Cunit.Top_down.static in
  (* Dataflow between a region's items also travels through its direct
     locals (e.g. the per-chunk fingerprint handed from stage to stage), so
     they join the globals for this analysis. *)
  let gv =
    Mil.Static.SS.union
      (Cunit.Top_down.construction_globals st rid)
      (Mil.Static.region st rid).Mil.Static.locals
  in
  let items = Cunit.Top_down.items_of_region st rid gv in
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n < 2 then None
  else begin
    let module SS = Mil.Static.SS in
    (* preds.(b) = earlier items b truly depends on *)
    let level = Array.make n 0 in
    for b = 0 to n - 1 do
      for a = 0 to b - 1 do
        if
          not
            (SS.is_empty
               (SS.inter arr.(a).Cunit.Top_down.it_writes
                  arr.(b).Cunit.Top_down.it_reads))
        then level.(b) <- max level.(b) (level.(a) + 1)
      done
    done;
    (* A stage member is "substantial" when it is a call or a compound
       statement; bare declarations do not make a task. *)
    let substantial k =
      arr.(k).Cunit.Top_down.it_call || arr.(k).Cunit.Top_down.it_weight >= 3
    in
    let n_levels = 1 + Array.fold_left max 0 level in
    let members = Array.make n_levels [] in
    let counts = Array.make n_levels 0 in
    Array.iteri
      (fun k it ->
        members.(level.(k)) <- it.Cunit.Top_down.it_line :: members.(level.(k));
        if substantial k then counts.(level.(k)) <- counts.(level.(k)) + 1)
      arr;
    let width = Array.fold_left max 0 counts in
    let substantial_total =
      Array.fold_left ( + ) 0 counts
    in
    if n_levels < 2 || substantial_total < 2 then None
    else begin
      let stages =
        Array.to_list (Array.map (fun ls -> List.sort compare ls) members)
      in
      let shape = if width >= 2 then Taskgraph else Pipeline in
      Obs.Counter.incr c_mpmd;
      Some
        { m_region = rid;
          m_shape = shape;
          m_stages = stages;
          m_width = max 1 width;
          m_evidence =
            Printf.sprintf
              "%d items -> %d dataflow stages (width %d, %d substantial tasks)"
              n n_levels width substantial_total;
          m_items = items }
    end
  end

let spmd_to_string s =
  match s.s_kind with
  | `Loop_tasks line ->
      Printf.sprintf "SPMD tasks: loop@%d (%s)" line s.s_evidence
  | `Recursive_forkjoin f ->
      Printf.sprintf "SPMD fork-join: %s at lines [%s] (%s)" f
        (String.concat "," (List.map string_of_int s.s_task_lines))
        s.s_evidence

let mpmd_to_string m =
  Printf.sprintf "MPMD %s: region %d, %d stages (width %d): %s"
    (match m.m_shape with Taskgraph -> "task graph" | Pipeline -> "pipeline")
    m.m_region (List.length m.m_stages) m.m_width m.m_evidence
