(** Suggestion-driven auto-parallelization of MIL programs (the mechanical
    counterpart of the paper's hand-parallelized Table-4.2 validation).

    Each transform consumes one ranked suggestion from
    {!Discovery.Suggestion.analyze} and rewrites a deep copy of the program
    with [Par]/[Lock]/[Atomic_assign]:

    - DOALL loops become chunked [Par] blocks with per-chunk reduction
      accumulators (or atomicized callee reductions) and privatized scalars
      with a guarded lastprivate write-back;
    - DOACROSS loops are fissioned into a dependence-free prefix that runs
      chunk-parallel and a carried suffix serialized chunk-to-chunk through
      lock-protected scalar hand-offs;
    - SPMD recursive fork-join tasks and MPMD task-graph stages become
      [Par]-spawned statement runs with declared results hoisted.

    Transforms are deliberately conservative: any shape the rewriter cannot
    prove safe returns [Error reason] and the caller falls through to the
    next suggestion. {!Validate} is the dynamic backstop. *)

type plan = {
  p_suggestion : Discovery.Suggestion.t;  (** the suggestion applied *)
  p_line : int;       (** header line of the transformed construct *)
  p_chunks : int;
  p_notes : string list;  (** human-readable transform decisions *)
}

type t = {
  original : Mil.Ast.program;
  transformed : Mil.Ast.program;  (** renumbered; name suffixed ["_par"] *)
  plan : plan;
}

val apply :
  ?chunks:int ->
  Discovery.Suggestion.report ->
  Discovery.Suggestion.t ->
  (t, string) result
(** Apply the transform for one suggestion. [chunks] (default 4) is the
    thread count for chunked loops. The report's program is never mutated:
    the transform runs on a deep copy which is renumbered afresh. *)

val apply_first :
  ?chunks:int ->
  Discovery.Suggestion.report ->
  (t * (Discovery.Suggestion.t * string) list,
   (Discovery.Suggestion.t * string) list)
  result
(** Apply the best-ranked transformable suggestion. [Ok (t, skipped)]
    carries the suggestions skipped on the way (with reasons); [Error all]
    means nothing was transformable. *)

val naive_doall :
  ?chunks:int -> Mil.Ast.program -> line:int -> (Mil.Ast.program, string) result
(** Chunk the for loop at [line] with {e no} privatization, reduction or
    carried-dependence handling — an intentionally unsound transform used
    as the fixture that differential validation must reject. *)

val plan_to_string : plan -> string

val stmt_effects : Mil.Static.t -> Mil.Ast.stmt -> Mil.Static.SS.t * Mil.Static.SS.t
(** [(reads, writes)] of a statement and every statement nested in it, callee
    effects included, declaration binders and a [for] index counted as
    writes: the effects fork-join tasks and task-graph stages are checked
    against. *)
