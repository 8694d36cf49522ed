(** Rewrite and substitution utilities over MIL ASTs, used by the
    [lib/transform] auto-parallelization subsystem and the passes, all
    built on the walker in {!Ast}.

    Statements carry a mutable [line] field that {!Builder.number} patches
    in place, so a program about to be edited and renumbered must first be
    deep-copied — otherwise renumbering the transformed program would
    corrupt the original that suggestions (and their line numbers) were
    computed against. *)

(** {1 Deep copy} *)

val copy_block : Ast.block -> Ast.block
val copy_program : Ast.program -> Ast.program

(** {1 Variable renaming}

    Rename every syntactic occurrence of a name — scalar and array
    reads/writes, lengths, declarations, loop indices. Callee bodies are
    separate scopes and are not entered. *)

val rename_stmt : from:string -> to_:string -> Ast.stmt -> Ast.stmt
(** The statement's own occurrences: its binder, index or target and the
    expressions it evaluates. Nested blocks are left as they are. *)

val rename_block : from:string -> to_:string -> Ast.block -> Ast.block
(** Every occurrence in the block, nested blocks included. *)

(** {1 Search / replace by source line} *)

val replace_lines :
  Ast.program ->
  lines:int list ->
  f:(Ast.stmt list -> Ast.stmt list) ->
  Ast.program option
(** Replace the consecutive statements of one block that carry exactly
    [lines], in order, with [f] of them; a single statement is the segment
    [[line]]. The first statement carrying [List.hd lines] in pre-order
    decides: [None] if there is none or the segment does not follow it.
    [f]'s result is not searched again. The replacement is pure: enclosing
    statements are rebuilt. *)

val find_by_line : Ast.program -> line:int -> Ast.stmt option
(** The first statement, in pre-order, at [line]. *)

(** {1 Syntactic probes} *)

val stmt_calls : Ast.stmt -> string list -> string list
(** Names of the calls the statement makes itself — a call statement's
    callee and every call in {!Ast.stmt_exprs} — prepended to the
    accumulator. Nested blocks are not entered. *)

val expr_has_call : Ast.expr -> bool

val block_calls : Ast.block -> string list
(** {!stmt_calls} of every statement of the block, nested ones included;
    a name appears once per call site. *)

val reachable_calls : Ast.program -> Ast.block -> string list
(** Transitive closure of call targets reachable from the block through
    user-function bodies; builtins ({!Ast.builtin}) appear as leaves. *)

val stmt_names : Ast.stmt -> string list -> string list
(** Every variable the statement mentions itself — binder, loop index,
    assignment target or freed array, and every scalar, array and length
    name in {!Ast.stmt_exprs} — prepended to the accumulator. Callee and
    lock names are not variables. *)

val mentions : Ast.block -> string -> bool
(** The name occurs anywhere in the block, by {!stmt_names}. *)

val count_stmts : Ast.block -> int
(** Statements in the block, nested ones included. *)

val has_sync : Ast.block -> bool
(** [Par] / [Lock] / [Unlock] / [Barrier] anywhere in the block. *)

val has_par : Ast.program -> bool
(** A [Par] statement in some function of the program: without one, the
    program runs as a single thread. *)

val has_return : Ast.block -> bool

val has_toplevel_break : Ast.block -> bool
(** A [Break] that would escape the region's own loop, i.e. one not nested
    inside a deeper loop of the block. *)
