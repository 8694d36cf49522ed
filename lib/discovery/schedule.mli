(** Deterministic multicore schedule simulation: greedy list scheduling of a
    weighted task DAG onto p identical processors (Brent's bound). Used to
    *model* the speedup shapes of Table 4.2 / Fig. 4.11 when the host lacks
    the paper's core count. *)

type task = {
  t_id : int;
  t_cost : int;              (** dynamic memory instructions, a cost proxy *)
  t_deps : int list;         (** must finish before this task starts *)
}

val makespan : processors:int -> task list -> int
val total_work : task list -> int

val speedup : processors:int -> ?serial:int -> task list -> float
(** Modeled speedup with [serial] unparallelisable work (Amdahl). *)

val independent : int list -> task list
(** Tasks with the given costs and no dependences. *)

val doall_speedup :
  processors:int ->
  iterations:int ->
  loop_instructions:int ->
  total_instructions:int ->
  float
(** A DOALL suggestion modeled as OpenMP-style static chunks, 4 per
    processor, each paying a spawn/reduction overhead of 4% of its work plus
    16; work outside the loop is serial. *)
