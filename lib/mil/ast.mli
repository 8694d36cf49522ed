(** Abstract syntax of MIL, the mini imperative language that stands in for
    C/C++-compiled-to-LLVM-IR in this reproduction.

    MIL mirrors the subset of program structure that matters to DiscoPoP:
    scalar and array memory accesses with source locations, nested control
    regions (functions, loops, branches), function calls, and explicitly
    locked thread parallelism. Values are machine integers; the dependence
    structure of a program does not depend on the value domain. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Band | Bor | Bxor | Shl | Shr
  | Min | Max

type expr =
  | Int of int
  | Var of string                 (** scalar read *)
  | Idx of string * expr          (** array element read: [a[e]] *)
  | Len of string                 (** array length; no memory access *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr
  | Call of string * expr list    (** call for value *)

type lhs =
  | Lvar of string                (** scalar write *)
  | Lidx of string * expr         (** array element write *)

(** Statements carry a [line] filled in by {!Builder.number}: a global,
    pre-order source-line number, playing the role of fileID:lineID. *)
type stmt = { mutable line : int; node : node }

and node =
  | Decl of string * expr              (** scalar local declaration *)
  | Decl_arr of string * expr          (** local array of given size, zeroed *)
  | Assign of lhs * expr
  | If of expr * block * block
  | While of expr * block
  | For of for_loop
  | Call_stmt of string * expr list    (** call for effect *)
  | Return of expr option
  | Break
  | Par of block list                  (** fork blocks as threads, join all *)
  | Lock of string                     (** named mutex *)
  | Unlock of string
  | Barrier of string                  (** all threads of the par group wait *)
  | Free of string                     (** explicit array deallocation *)
  | Atomic_assign of lhs * expr        (** lock-free atomic update *)

and for_loop = { index : string; lo : expr; hi : expr; step : expr; body : block }
(** [for index = lo; index < hi; index += step] *)

and block = stmt list

type func = {
  fname : string;
  params : string list;       (** scalar parameters, passed by value *)
  arr_params : string list;   (** array parameters, passed by reference *)
  body : block;
  mutable fline : int;        (** line of the function header *)
}

type global =
  | Gscalar of string * int   (** name, initial value *)
  | Garray of string * int    (** name, size (zero-initialised) *)

type program = {
  pname : string;
  globals : global list;
  funcs : func list;
  entry : string;             (** name of the entry function *)
}

(** {1 The walker}

    The tree's shape, described once: an expression's sub-expressions, the
    expressions a statement evaluates itself, and the blocks it nests. The
    traversals below are pre-order: a node is visited before its children,
    children left to right. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Folds over the expression and every sub-expression, pre-order. *)

val exists_expr : (expr -> bool) -> expr -> bool

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up rewrite: [f] sees each node with its sub-expressions already
    mapped; its result is not traversed again. *)

val stmt_exprs : stmt -> expr list
(** The expressions a statement evaluates itself, in source order: an assignment target's index, then the right-hand side;
    a branch or loop condition; [for] bounds and step; call arguments.
    Nested blocks are not entered. *)

val stmt_blocks : stmt -> block list
(** The blocks a statement nests: both arms of an [if], a loop body, every
    [par] arm. *)

val map_stmt : ?expr:(expr -> expr) -> ?block:(block -> block) -> stmt -> stmt
(** A fresh statement with the same line and shape, [expr] applied to each
    of {!stmt_exprs} and [block] to each of {!stmt_blocks} (both default to
    the identity), left to right, expressions first. Names (binders,
    targets, callees) are kept. *)

val fold_block : ('a -> stmt -> 'a) -> 'a -> block -> 'a
(** Folds over every statement of the block, nested ones included,
    pre-order. *)

val exists_block : (stmt -> bool) -> block -> bool

val map_block : (stmt -> stmt) -> block -> block
(** Every statement rebuilt pre-order: [f] is applied to a statement, then
    the blocks of its result are mapped. Every record is fresh, so
    [map_block Fun.id] is a deep copy. *)

val find_func : program -> string -> func
(** @raise Invalid_argument on unknown function names. *)

(** {1 Builtins and synchronisation} *)

(** The functions a program calls without defining them. A user function of
    the same name takes precedence at run time ({!Compile}); the predicates
    below go by the name alone. *)
type builtin =
  | Rand   (** [rand(b)] / [rand()]: draws from the run's PRNG *)
  | Abs    (** [abs(e)]: pure *)
  | Print  (** [print(e, ...)]: observable output *)

val builtin : string -> builtin option
val is_builtin : string -> bool

val draws : string -> bool
(** The callee draws from the run's PRNG ([rand]): its results depend on
    the seed and on the order of the draws. *)

val prints : string -> bool
(** The callee is observable output ([print]): the order of its calls is
    part of the program's observation. *)

val pure_builtin : string -> bool
(** A builtin with no effect and no draw ([abs]). *)

val is_sync : stmt -> bool
(** [Lock], [Unlock] or [Barrier]: the statements that synchronise threads.
    Callers add their own further constructs ([Par], [Atomic_assign],
    [Free], ...). *)

val is_reduction_op : binop -> bool
(** Operators over which loop-carried dependences are resolvable by parallel
    reduction (§4.1.1): commutative-associative arithmetic. *)

val string_of_binop : binop -> string
