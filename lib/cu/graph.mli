(** The CU graph (§3.4): vertices are CUs, edges are profiled data
    dependences mapped to the CUs containing their sink and source lines.
    Edge admission follows Table 3.1: between different CUs all three kinds;
    within one CU only RAW self-edges. *)

module Dep = Profiler.Dep

type edge = {
  e_from : int;              (** the dependent CU (the dependence's sink) *)
  e_to : int;                (** the CU depended on (the source) *)
  e_type : Dep.dtype;
  e_var : string;            (** variable at the dependence's source *)
  e_carried : int option;    (** carrying loop header line, if loop-carried *)
  e_count : int;             (** merged occurrence count *)
  e_risk : float;            (** max false-positive risk of the merged deps
                                 (from {!Dep.prov}; 0 under exact shadows) *)
}

type t = {
  cus : Cu.t array;
  index_of : (int, int) Hashtbl.t;   (** CU id -> array position *)
  edges : edge list;
  succ : int list array;  (** dependence direction: dependent -> source *)
  pred : int list array;
}

val build : cus:Cu.t list -> deps:Dep.Set_.t -> t
(** Besides the profiled edges, adds RAW edges from the CUs'
    interprocedural read/write sets — dataflow through callees is profiled on
    callee lines and cannot be attributed to the calling CUs otherwise. *)

val size : t -> int
val cu : t -> int -> Cu.t

val raw_succ : t -> int list array
(** RAW-only adjacency (the unbreakable true dependences), by position. *)

val self_raw : t -> int list
(** Positions of CUs with RAW self-edges: iterative feedback (Fig. 3.4). *)

val to_dot : ?risk_threshold:float -> t -> string
(** Graphviz rendering. Edges whose false-positive risk reaches
    [risk_threshold] (default 0.5) render dashed with the risk in the label —
    `discopop explain --dot`'s risk overlay. Under exact shadows all risks
    are 0 and the output is unchanged. *)
