(** The staged MIL evaluator core shared by {!Interp} and {!Par_eval}.

    A program is lowered once per run into closures: statements to
    [frame -> unit], expressions to [frame -> int]. Every local (parameter,
    declaration, [for] index) resolves to a slot of its function's frame,
    every global to its fixed address, every callee to its compiled body.
    Leaving a block frees the slots declared in it, and those a [Break]
    left bound in blocks nested in it, last declared first.

    What differs between the two evaluators — the memory model, the access
    hook, scheduling and synchronisation — is a {!BACKEND}. The core fixes
    the semantics both share: evaluation order (index before load, right-hand
    side before the target's index, arguments left to right), one
    {!BACKEND.stmt} call per executed statement, by-value scalars and
    by-reference arrays at calls. *)

exception Runtime_error of string
(** Out-of-bounds accesses, unbound variables, arity errors. *)

exception Cancelled
(** Raised by a backend's cancellation poll. *)

(** Deterministic xorshift PRNG behind MIL's [rand] builtin and the fiber
    scheduler. *)
module Rng : sig
  type t

  val default_seed : int
  (** The seed of a run that names none, for both evaluators:
      [Transform.Measure] compares an [Interp] run with a [Par_eval] run at
      the same seed. *)

  val create : int -> t

  val int : t -> int -> int
  (** [int t bound] is uniform in [0, bound). *)

  val draw : t -> int -> int
  (** What [rand] returns: [draw t 0] for [rand()] (16 random bits),
      [draw t b] with [b > 0] for [rand(b)]. *)
end

val truthy : int -> bool
(** MIL's boolean coercion: any non-zero value is true. *)

val apply_binop : Ast.binop -> int -> int -> int
(** MIL arithmetic and comparisons: division by zero yields 0, shifts mask
    their count, comparisons yield 0/1. *)

(** Freed addresses, reused before fresh memory: scalars last freed first,
    arrays by exact length, last freed first. *)
module Recycle : sig
  type t

  val create : unit -> t
end

(** What an evaluator supplies. [ctx] is the executing thread's context,
    reached from every frame. Scalars have length 0, arrays their length
    (at least 1). *)
module type BACKEND = sig
  type ctx
  type loop

  val read : ctx -> int -> int -> int -> int
  (** [read ctx addr sym line]: a load through the access hook. *)

  val write : ctx -> int -> int -> int -> int -> unit
  (** [write ctx addr sym line v]: a store through the access hook. *)

  val peek : ctx -> int -> int
  (** A load outside the program (global read-out). *)

  val poke : ctx -> int -> int -> unit
  (** A store outside the program (global initialisation). *)

  val recycled : ctx -> Recycle.t
  (** The addresses this context freed. *)

  val fresh : ctx -> int -> int
  (** [fresh ctx n]: [n] never used, zeroed cells. *)

  val dealloc : ctx -> (int * int * string) list -> unit
  (** The lifetime event for (address, length, name) ranges, in
      declaration order; called only when lowered with [~deallocs:true]. *)

  val stmt : ctx -> unit
  (** Called once per executed statement, before anything else in it. *)

  val enter : ctx -> Ast.func -> int -> unit
  (** A call of the function from the given line, its arguments evaluated,
      its parameters not yet written. *)

  val entered : ctx -> unit
  (** The parameters are written. *)

  val leave : ctx -> Ast.func -> unit
  (** A normal return, parameters freed. *)

  val loop_enter : ctx -> int -> loop
  (** A loop at the given line starts. *)

  val loop_head : ctx -> loop -> int -> unit
  (** Iteration [n]'s admission check ([for]: also its increment) starts. *)

  val loop_body : ctx -> loop -> int -> unit
  (** Iteration [n]'s body starts. *)

  val loop_exit : ctx -> loop -> int -> unit
  (** The loop ended after the given number of iterations. *)

  val rand : ctx -> int -> int
  (** {!Rng.draw} on the run's generator. *)

  val print : ctx -> int list -> unit
  val lock : ctx -> string -> unit
  val unlock : ctx -> string -> unit
  val barrier : ctx -> string -> unit

  val atomic : ctx -> 'f -> ('f -> int) -> ('f -> int) -> int -> int -> unit
  (** [atomic ctx f rhs target sym line]: an atomic assignment; [rhs f] is
      the value, [target f] evaluates the target's index and returns its
      address, and the backend chooses their order. *)

  val par : ctx -> bool -> (ctx -> unit) list -> unit
  (** Run the arms as threads and join them all. The flag says whether
      some arm can lock or wait at a barrier, directly or through calls. *)
end

module Make (B : BACKEND) : sig
  type t
  (** A lowered program with its globals allocated. *)

  val prepare : ?deallocs:bool -> B.ctx -> Ast.program -> t
  (** Allocate the globals in declaration order, then lower every function.
      [deallocs] (default false) makes scope exits report {!BACKEND.dealloc}
      events. Raises [Invalid_argument] when the entry function is
      missing. *)

  val locks : t -> string list
  (** The names of the locks the program's statements take or release. *)

  val run_main : t -> B.ctx -> int
  (** Execute the entry function's body; its return value. *)

  val final_globals : t -> B.ctx -> (string * int array) list
  (** Every global's value in declaration order, scalars as 1-element
      arrays. *)
end
