(** Task parallelism discovery (§4.2): SPMD-style tasks (taskloops and
    recursive fork-join) and MPMD-style task graphs and pipelines, found by
    grouping a region's items into stages by their data flow (Fig. 4.5). *)

module Dep = Profiler.Dep
module Static = Mil.Static

type spmd = {
  s_kind : [ `Loop_tasks of int | `Recursive_forkjoin of string ];
  s_region : int;
  s_task_lines : int list;     (** lines of the task bodies / call sites *)
  s_evidence : string;
}

type mpmd_shape = Taskgraph | Pipeline

type mpmd = {
  m_region : int;
  m_shape : mpmd_shape;
  m_stages : int list list;    (** member item lines per stage, dataflow order *)
  m_width : int;               (** substantial tasks in the widest stage *)
  m_evidence : string;
  m_items : Cunit.Top_down.item list;
      (** the region's items, in statement order, whose dataflow the stages
          level (sets over the construction globals and the region's locals) *)
}

val call_sites_to : string -> Mil.Ast.block -> int list
(** Lines of statements calling the named function. *)

val recursive_forkjoin :
  Static.t -> Cunit.Top_down.result -> Dep.Set_.t -> spmd list
(** Functions with >= 2 recursive call sites whose tasks are mutually
    independent: the later spawn must not consume a value produced at or
    after the earlier one, and RAW flow through reduction-only variables
    does not serialise (Fig. 4.3 / 4.9). *)

val loop_tasks : Loops.analysis list -> spmd list
(** DOALL(-reduction) loops whose bodies do heavy work through calls become
    one-task-per-iteration suggestions (BOTS style). *)

val mpmd_of_region : Cunit.Top_down.result -> int -> mpmd option
(** Level the region's item dataflow graph (Fig. 4.5): [Some] when at least
    two stages with at least two substantial tasks remain. An antichain of
    width >= 2 is a task graph; a substantial chain is a pipeline. *)

val spmd_to_string : spmd -> string
val mpmd_to_string : mpmd -> string
