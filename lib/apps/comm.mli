(** Detecting communication patterns on multicore systems (§5.3, Fig. 5.1):
    cross-thread RAW dependences form a thread-to-thread communication
    matrix whose shape distinguishes master-worker, neighbour, and
    all-to-all programs. *)

module Dep = Profiler.Dep

type matrix = {
  threads : int;
  counts : int array array;  (** consumer x producer *)
}

val of_deps : Dep.Set_.t -> matrix
(** Threads 0 to 31; dependences of later threads are left out. *)

type pattern = All_to_all | Master_worker | Neighbour | Uncoupled

val classify : matrix -> pattern
val pattern_to_string : pattern -> string

val render : matrix -> string
(** ASCII heatmap in the style of Fig. 5.1; the diagonal (self-communication)
    is suppressed. *)
