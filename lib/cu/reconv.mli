(** Dynamic control-dependence analysis via re-convergence points (§3.2.2):
    for every branch, find where the alternatives end and unconditional
    execution resumes by looking ahead along every alternative until the
    paths meet, over a statement-level CFG. *)

type t

val analyze : Mil.Ast.program -> (string, t) Hashtbl.t
(** One CFG per function; the synthetic exit line is one past the program's
    last line. *)

val reconvergence_point : t -> int -> int option
(** The re-convergence line of the branch statement at the given line. *)

val control_dependent_lines : t -> int -> int list
(** Statements control-dependent on the branch: reachable from an
    alternative head before the re-convergence point. *)
