(** The MIL instrumenting interpreter: executing a program produces the
    {!Trace.Event} stream — the substitute for DiscoPoP's LLVM
    instrumentation pass and runtime hooks.

    It is the {!Compile} core over a flat heap, with an access hook that
    stamps and emits events. Thread-parallel programs ([Par] blocks with
    locks and barriers) run as cooperative fibers over OCaml effects with a
    seeded pseudo-random scheduler, so interleavings are reproducible yet
    varied. *)

exception Runtime_error of string
(** Out-of-bounds accesses, unbound variables, arity errors
    ({!Compile.Runtime_error}). *)

exception Deadlock
(** All live threads are blocked on locks or barriers. *)

exception Cancelled
(** Raised out of {!run} when the [cancelled] poll returns true — the
    cooperative-cancel hook deadline watchdogs (batch driver, serve daemon)
    use to stop a runaway program ({!Compile.Cancelled}). *)

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable loop_iterations : int;
  mutable calls : int;
  mutable statements : int;  (** executed statements, loops and ifs included *)
}

type run_result = {
  result : int;            (** the entry function's return value *)
  r_stats : stats;
  dynamic_ops : int;       (** distinct static memory operations executed *)
  final_globals : (string * int array) list;
      (** final value of every global, in declaration order; scalars as
          1-element arrays. Together with [result] and the [print] stream
          this is the observable state differential validation compares. *)
}

val run :
  ?seed:int ->
  ?instrument:bool ->
  ?lstacks:Trace.Intern.Lstack.t ->
  ?scramble_unlocked:bool ->
  ?emit:(Trace.Event.region -> unit) ->
  ?on_access:Trace.Event.access_sink ->
  ?on_print:(int list -> unit) ->
  ?cancelled:(unit -> bool) ->
  Ast.program ->
  run_result
(** Execute the program. [instrument:false] skips event construction (the
    native baseline for slowdown measurements). Each access's [lstack] is
    an id into [lstacks], the loop-stack table the caller's engines read;
    an instrumented run without one pushes into a fresh table of its own,
    an uninstrumented run pushes nothing. [emit] receives the region
    events and [on_access] every access, as unboxed fields; both default to
    dropping them. [scramble_unlocked] delays and reorders the delivery of
    unlocked accesses from concurrent threads, modelling the access/push
    atomicity violation that exposes potential data races (§2.3.4).
    [on_print] observes each [print] builtin call's
    evaluated arguments. [cancelled] is polled every ~2k statements;
    returning true raises {!Cancelled} out of the run.

    Leaving a block frees its locals last-declared first, and the
    [Dealloc] event lists them in declaration order. A function's
    top-level locals are not freed at return (only its scalar parameters
    are), and a local redeclared in the same block leaks the earlier
    address. *)

val trace :
  ?seed:int -> ?scramble_unlocked:bool -> Ast.program ->
  run_result * Trace.Event.t list
(** Run and collect all events in order, accesses as [Event.Access]
    records; convenient for tests and offline analyses. *)
