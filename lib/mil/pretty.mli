(** Source rendering of MIL programs with line numbers, so users can
    correlate profiler output (fileID:lineID) with code. *)

val expr_to_string : Ast.expr -> string
val render_program : Ast.program -> string
