(** The Program Execution Tree (§2.3.6): functions, loops, and straight-line
    blocks with "calling"/"containing" edges. Multiple dynamic instances of a
    static construct are merged into one node. Subtree instruction totals
    feed the ranking's coverage and iteration counts the loop classifier;
    dependence counts are computed only by {!to_string}. *)

type kind =
  | Fnode of string           (** function *)
  | Lnode of int              (** loop, by header line *)
  | Bnode of int              (** straight-line block, by first access line *)

type node = {
  id : int;
  kind : kind;
  parent : int;                (** [-1] for a root *)
  mutable children : int list;
  mutable instructions : int;  (** dynamic memory instructions directly here *)
  mutable iterations : int;    (** loops: total iterations across instances *)
  mutable instances : int;     (** dynamic instances merged into this node *)
  mutable first_line : int;
  mutable last_line : int;
}

type t

(** {1 Construction} *)

type builder

val create_builder : unit -> builder
val feed_region : builder -> Trace.Event.region -> unit

val feed_access_line : builder -> line:int -> unit
(** One access, given just its line: an access contributes nothing else to
    the tree. *)

val finish : builder -> t
(** Close the tree: line spans grow to cover their subtrees, and subtree
    instruction totals are computed once. *)

(** {1 Queries} *)

val node : t -> int -> node
val size : t -> int

val total_instructions : t -> int
(** Memory instructions under the root, as of {!finish}; O(1). *)

val totals : t -> kind -> int * int
(** Iterations and subtree instructions summed over every node of one
    construct: a loop under several callers, and a recursive function's
    nested nodes too. [(0, 0)] for a construct that never ran. As of
    {!finish}; O(1). *)

val iter : (node -> unit) -> t -> unit
val to_string : t -> Dep.Set_.t -> string
(** The tree, one node per line, each with its line span, subtree
    instructions and the number of distinct dependence records in the set
    whose sink line lies in the span. *)
