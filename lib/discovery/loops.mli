(** Loop parallelism discovery (§4.1): DOALL, DOALL-with-reduction, DOACROSS
    and sequential classification from profiled loop-carried dependences,
    discounting loop indices (§3.2.5) and recognised reductions, and
    reporting privatisable name-dependence targets. *)

module Dep = Profiler.Dep
module Static = Mil.Static
module SS = Static.SS

type loop_class =
  | Doall                  (** fully independent iterations *)
  | Doall_reduction        (** independent given a reduction clause *)
  | Doacross               (** carried deps, partial overlap possible *)
  | Sequential

val class_to_string : loop_class -> string

type analysis = {
  region : Static.region;
  loop_line : int;
  cls : loop_class;
  blocking : Dep.t list;        (** carried RAW deps that prevent DOALL *)
  reduction_vars : (string * Mil.Ast.binop) list;
      (** reduction-resolvable variables used by carried deps *)
  private_vars : string list;   (** carried WAR/WAW name-dependence targets *)
  body_cus : Cunit.Cu.t list;
  free_cus : int;               (** body CUs untouched by blocking deps *)
  iterations : int;             (** total iterations observed (PET) *)
  instructions : int;           (** dynamic memory instructions in the loop *)
}

val analyze_all :
  Static.t -> Cunit.Top_down.result -> Dep.Set_.t -> Profiler.Pet.t ->
  analysis list
(** Every loop that was actually executed. *)

val to_string : analysis -> string
