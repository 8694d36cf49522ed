(** Top-down CU construction (Algorithm 3, §3.2.3): starting from functions,
    check whether a whole control region satisfies the read-compute-write
    pattern; reads that violate it split the region at the violating
    statements. Nested regions are single items at their parent's level and
    are decomposed recursively. The §3.2.5 special rules apply: scalar
    parameters in the read set only, [ret] in the write set, loop indices
    local unless the body writes them. *)

module SS = Mil.Static.SS

(** One item of a region's statement sequence: a plain statement or a nested
    control region collapsed to its aggregated access sets. *)
type item = {
  it_line : int;
  it_reads : SS.t;         (** region-global variables read by the item *)
  it_writes : SS.t;
  it_lines : int list;     (** all lines covered (subtree for regions) *)
  it_weight : int;
  it_call : bool;
  it_region : int option;  (** nested region id, if the item is a region *)
}

type result = {
  cus : Cu.t list;                          (** every CU, all regions *)
  by_region : (int, Cu.t list) Hashtbl.t;   (** region id -> its partition *)
  static : Mil.Static.t;
}

val build : Mil.Static.t -> result

val cus_of_region : result -> int -> Cu.t list
val region_is_single_cu : result -> int -> bool
(** Whether the whole region satisfies the read-compute-write pattern. *)

(** {1 Exposed internals (testing, custom analyses)} *)

val construction_globals : Mil.Static.t -> int -> SS.t
(** The variable set used for CU construction in the region, with the
    §3.2.5 special rules applied. *)

val items_of_region : Mil.Static.t -> int -> SS.t -> item list

val stmt_lines : Mil.Ast.stmt -> int list
(** Every line of the statement's subtree, in pre-order. *)

val stmt_has_call : Mil.Ast.stmt -> bool
(** A call anywhere in the statement's subtree, assignment-target indices
    included. *)
