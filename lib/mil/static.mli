(** Static analysis over MIL programs — the counterpart of DiscoPoP's
    compile-time passes: the control-region tree, global/local variable
    classification per region (§3.2.1), interprocedural read/write summaries,
    and reduction recognition (§4.1.1). *)

module SS : Set.S with type elt = string

type region_kind =
  | Rfunc of string
  | Rloop of { index : string option; cond_vars : SS.t }
      (** [index] is [None] for while loops; [cond_vars] are the variables
          the loop condition reads — a carried true dependence on one of
          them controls the iteration space and can never be discounted. *)
  | Rbranch of { arm_then : bool }

(** A control region: a function body, loop body, or branch arm. Statements
    of a region occupy the contiguous line interval
    [[first_line, last_line]]. *)
type region = {
  id : int;
  kind : region_kind;
  parent : int;                       (** [-1] at a function root *)
  depth : int;
  mutable children : int list;        (** in source order *)
  first_line : int;                   (** header line of the construct *)
  mutable last_line : int;
  mutable globals_read : SS.t;        (** global-to-region vars read inside *)
  mutable globals_written : SS.t;
  mutable locals : SS.t;              (** vars declared directly in region *)
  mutable reductions : (string * Ast.binop) list;
      (** reduction statements at this region's direct level *)
  mutable index_written_in_body : bool;  (** §3.2.5 loop-index special rule *)
  stmts : Ast.block;                  (** direct statements *)
}

(** Interprocedural summary: which program globals and array parameters a
    function transitively reads and writes. *)
type summary = {
  sum_gread : SS.t;
  sum_gwritten : SS.t;
  sum_pread : SS.t;        (** names of array params read *)
  sum_pwritten : SS.t;
}

type t = {
  program : Ast.program;
  funcs : (string, Ast.func) Hashtbl.t;  (** callee lookup by name *)
  regions : region array;
  func_region : (string, int) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
  program_globals : SS.t;
}

val analyze : Ast.program -> t

(** What one statement does itself, nested blocks excluded. *)
type effects = {
  fx_reads : SS.t;
      (** names its expressions read, assignment-target indices included,
          and what its callees read *)
  fx_writes : SS.t;
      (** its assignment target or freed array, and what its callees write *)
  fx_binds : string option;
      (** the local a declaration introduces, apart from the writes: it is
          in scope only after the statement *)
}

val effects : t -> Ast.stmt -> effects
(** Callee effects are mapped through the call sites: array-parameter
    effects become effects on the actual argument arrays. *)

(** {1 Accessors} *)

val region : t -> int -> region
val func_region : t -> string -> int
val summary : t -> string -> summary option
val global_vars : t -> int -> SS.t
(** Variables global to a region (read or written), per §3.2.1. *)

val loop_regions : t -> region list
val func_of_region : t -> int -> string
(** The function whose body (transitively) contains the region. *)

(** {1 Syntactic helpers} *)

val expr_read_vars : Ast.expr -> SS.t -> SS.t
(** Variable names an expression reads, added to the accumulator. *)

val reduction_of_stmt : Ast.stmt -> (string * Ast.binop) option
(** Recognise [x = x op e] / [a[i] = a[i] op e] with a reduction operator
    where [e] does not re-read the reduced variable ([a[i] = a[i] + a[i-1]]
    is a recurrence, not a reduction). *)

val reduction_only_vars :
  Ast.program -> (string, Ast.binop * int list) Hashtbl.t
(** Variables whose every write in the whole program is a reduction with a
    consistent operator (initialisation outside loops allowed); the value is
    the operator and the reduction statement lines. Carried RAW dependences
    on such variables whose sink is one of those lines are resolvable by
    parallel reduction even when the update happens inside a callee. *)
