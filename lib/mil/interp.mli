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
  mutable switches : int;
      (** fiber context switches at statement boundaries: the scheduler's
          draw picked another ready fiber than the running one *)
  mutable spawns : int;  (** fibers spawned by [Par] *)
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
  ?preempt:bool ->
  ?instrument:bool ->
  ?lstacks:Trace.Intern.Lstack.t ->
  ?scramble_unlocked:bool ->
  ?emit:(Trace.Event.region -> unit) ->
  ?on_access:Trace.Event.access_sink ->
  ?on_sync:Trace.Event.sync_sink ->
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
    [on_sync] receives every fork and join of a [Par] arm, every lock
    handed to or released by a thread while another is live, every atomic
    update made while another thread is live (as its variable's lock), and
    every barrier arrival and departure, at the point they take effect;
    it defaults to dropping them. Sync operations are never delayed, so a
    happens-before consumer must read an unscrambled run.
    [seed] (default {!Compile.Rng.default_seed}) seeds the run's one PRNG.
    [preempt] (default [true]) makes every statement of a run with more
    than one live thread a scheduling point: the seeded scheduler draws
    which ready fiber runs next, as it does whenever a fiber blocks or
    ends. [preempt:false] schedules without preemption or draws: a thread
    runs until it blocks on a join, a lock or a barrier, or ends; the
    most recently readied fiber runs next, and a [Par]'s first arm runs
    first, so a fork-join program without locks or barriers runs in its
    serial elision's order, depth-first, with no fiber switch. [rand]
    still draws from the seeded PRNG. A thread that spins on a variable
    only a later thread writes never ends without preemption.
    With Obs enabled, a finished run adds its [switches] and [spawns] to
    the [interp.fiber.switches] and [interp.fiber.spawns] counters.
    [on_print] observes each [print] builtin call's
    evaluated arguments. [cancelled] is polled every ~2k statements;
    returning true raises {!Cancelled} out of the run.

    Leaving a block frees its locals last-declared first, and the
    [Dealloc] event lists them in declaration order. A function's
    top-level locals are not freed at return (only its scalar parameters
    are), and a local redeclared in the same block leaks the earlier
    address. *)

(** The buffer [scramble_unlocked] delays unlocked accesses in. *)
module Scramble : sig
  val max_pending : int
  (** Accesses the buffer holds before it is drained. *)

  val width : int
  (** Ints per buffered access: kind (0 read, 1 write), addr, var, line,
      thread, time, op, lstack. *)

  type scratch
  (** The drain's working state, reused across drains. *)

  val scratch : unit -> scratch

  val drain :
    scratch -> Compile.Rng.t -> int array -> int -> Trace.Event.access_sink ->
    unit
  (** [drain sc rng p n sink] emits the first [n <= max_pending] accesses
      of [p] into [sink], unlocked. Each step draws, with [Rng.int rng nt],
      one of the [nt] threads with accesses left, in ascending thread id,
      and emits that thread's oldest: each thread's accesses keep their
      order, and only the interleaving across threads is scrambled. *)
end
