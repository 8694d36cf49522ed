(** Bottom-up CU construction (§3.2.3), built on the fly as the trace
    streams by: static memory operations start as their own CUs and merge
    along anti-dependences (WAR), while true dependences (RAW) become edges —
    the fine-grained CU graph of Fig. 3.7, which the paper found too fine for
    task discovery. *)

type dynamic = {
  group_of_op : (int, int) Hashtbl.t;  (** op id -> group representative *)
  op_lines : (int, int) Hashtbl.t;     (** op id -> source line *)
  d_raw_edges : (int * int) list;      (** group -> group true dependences *)
  n_ops : int;
}

val build_dynamic : Mil.Ast.program -> dynamic
(** Run the program once under the instrumenting interpreter, consuming
    its accesses and [Dealloc] events as they are emitted. *)

val dynamic_group_count : dynamic -> int
