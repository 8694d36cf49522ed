(** Tarjan's strongly-connected components and their condensation, used to
    score a region's CU graph (§4.3): CUs on a dependence cycle run
    sequentially. *)

type result = {
  component : int array;          (** node -> component id *)
  components : int list array;    (** component id -> members *)
  count : int;
}

val run : int list array -> result

val condense : int list array -> result -> int list array
(** The DAG of components. *)
