(** Parallel MIL evaluation on real domains.

    Where {!Interp} runs [Par] blocks as cooperative fibers to *profile*
    them, this evaluator runs them on OCaml 5 domains to *measure* them:
    DOALL chunk blocks and SPMD task trees execute as fork-join tasks on a
    {!Runtime.Pool} work-stealing pool, while blocks containing blocking
    synchronisation ([Lock]/[Unlock]/[Barrier] — e.g. the lock-serialized
    DOACROSS hand-offs emitted by [Transform.Parallelize]) each get a
    dedicated domain, so a busy-wait hand-off can never starve a pool
    worker. The caller of {!run} is the pool's executor 0; a sync-free
    [Par] nested inside a dedicated domain runs its arms inline. [Lock] is
    a real [Mutex.t]; [Atomic_assign] serializes its read-modify-write
    through a stripe of mutexes hashed by target address.

    Memory is a paged shared heap ([int array] pages behind an [Atomic.t]
    page table) with per-task bump arenas, so concurrent tasks allocate
    without contending on anything but a fetch-and-add per arena refill.

    No instrumentation events are emitted; this is the measured-execution
    backend behind [discopop parallelize --measure]. *)

type result = {
  result : int;  (** the entry function's return value *)
  final_globals : (string * int array) list;
      (** final value of every global in declaration order, scalars as
          1-element arrays — same shape as {!Interp.run_result} so output
          equality checks compare directly *)
}

val run :
  ?pool:Runtime.Pool.t ->
  ?seed:int ->
  ?on_print:(int list -> unit) ->
  ?cancelled:(unit -> bool) ->
  Ast.program ->
  result
(** Execute the program. With [pool] (an already running work-stealing
    pool, which {!Measure} reuses across repetitions so pool spin-up is not
    timed) the calling domain is enrolled as the pool's executor 0 for the
    run: sync-free [Par] blocks run their first arm inline, counted as one
    of that executor's tasks, and their other arms as pool tasks. Without
    [pool], and inside a dedicated domain, sync-free [Par] blocks run their
    arms inline in order; blocks that synchronise always get dedicated
    domains. [on_print] observes [print] calls (serialized by a mutex when
    tasks race). [cancelled] is polled every ~2k statements per task, as
    in {!Interp.run}; a true verdict raises {!Interp.Cancelled} out of
    every task and then out of [run]. [seed] defaults to
    {!Compile.Rng.default_seed}, as in {!Interp.run}. *)
