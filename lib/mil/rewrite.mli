(** Rewrite and substitution utilities over MIL ASTs, used by the
    [lib/transform] auto-parallelization subsystem.

    Statements carry a mutable [line] field that {!Builder.number} patches
    in place, so a program about to be edited and renumbered must first be
    deep-copied — otherwise renumbering the transformed program would
    corrupt the original that suggestions (and their line numbers) were
    computed against. *)

(** {1 Deep copy} *)

val copy_stmt : Ast.stmt -> Ast.stmt
val copy_block : Ast.block -> Ast.block
val copy_func : Ast.func -> Ast.func
val copy_program : Ast.program -> Ast.program

(** {1 Variable renaming}

    Rename every syntactic occurrence of a name — scalar and array
    reads/writes, lengths, declarations, loop indices. Callee bodies are
    separate scopes and are not entered. *)

val rename_expr : from:string -> to_:string -> Ast.expr -> Ast.expr
val rename_stmt : from:string -> to_:string -> Ast.stmt -> Ast.stmt
val rename_block : from:string -> to_:string -> Ast.block -> Ast.block

(** {1 Search / replace by source line} *)

val replace_by_line :
  Ast.program -> line:int -> f:(Ast.stmt -> Ast.stmt list) -> Ast.program option
(** Replace the unique statement at [line] with the statements produced by
    [f]; [None] if no statement carries that line. The replacement is pure:
    enclosing blocks are rebuilt, untouched siblings are shared. *)

val find_by_line : Ast.program -> line:int -> (Ast.stmt * string) option
(** The statement at [line] and the name of its enclosing function. *)

(** {1 Syntactic feasibility probes} *)

val expr_calls : Ast.expr -> string list -> string list
(** Names of all calls in the expression, prepended to the accumulator. *)

val expr_has_call : Ast.expr -> bool

val block_calls : Ast.block -> string list -> string list

val reachable_calls : Ast.program -> Ast.block -> string list
(** Transitive closure of call targets reachable from the block through
    user-function bodies; builtins ("rand", "abs", "print") appear as
    leaves. *)

val calls_transitively : Ast.program -> Ast.block -> string -> bool

val has_sync : Ast.block -> bool
(** [Par] / [Lock] / [Unlock] / [Barrier] anywhere in the block. *)

val has_par : Ast.program -> bool
(** A [Par] statement in some function of the program: without one, the
    program runs as a single thread. *)

val has_return : Ast.block -> bool

val has_toplevel_break : Ast.block -> bool
(** A [Break] that would escape the region's own loop, i.e. one not nested
    inside a deeper loop of the block. *)
