(** Differential validation and measured work distribution for transformed
    programs — the dynamic backstop behind [discopop parallelize
    --validate].

    State equivalence runs original and transformed under several scheduler
    seeds and compares observable state (entry return value, final globals
    of the original program, [print] stream); the race check runs both,
    instrumented and unscrambled, into {!Profiler.Happens_before}, and
    requires no {e new} racy variables in the transformed program: a
    variable with two conflicting accesses that the run's forks, joins,
    locks, barriers and atomics leave unordered. {!verdict}'s
    [v_racy_raw] counts the transformed run's distinct read-after-write
    races. An original without [Par] is not race-run: a single thread has
    no racy variables. (The paper's timestamp-reversal rule, §2.3.4, stays
    in [Serial.profile ~scramble_unlocked:true] and [discopop races].)

    Each program runs as few times as the verdict needs: a race run at the
    first seed is also that seed's observation, and a {!seed_free}
    original is observed once for every seed. A {!schedule_determinate}
    transform is race-run without preemption ([Interp.run ~preempt:false]:
    its serial elision, with no fiber switch and no scheduler draw), and
    if that run reports no race at all, internal ["__"] names included, it
    is the transform's race run and its observation at every seed, the
    first included.
    - In [Interp], the seed reaches a run only through the PRNG: the
      scheduler's draws and [rand].
    - With no [rand], [print], lock, barrier, atomic or [Free], a
      fork-join program's threads meet only at [Par]'s fork and join, and
      a schedule, preemptive at any seed or not, changes only the
      interleaving of their statements. A fork-join run with no
      determinacy race reads the same write at every read under every
      interleaving (Feng & Leiserson, SPAA 1997), so every schedule is
      race-free too and ends in the same state.
    - [Compile.alloc] zeroes recycled memory, so a thread's fresh local
      does not carry an earlier owner's values.
    - [Free] is excluded because [Happens_before.feed_dealloc] forgets a
      freed range instead of treating the free as a write.
    If that run reports a race or raises, it is discarded: the transform
    gets the seeded race run any other transform gets, and runs at every
    seed unless that run is race-free. Per seed after the first, the
    transformed program otherwise runs once, uninstrumented, and so does
    a non-seed-free original.

    Those plain observations do not depend on the race runs, so
    {!differential} enrols as executor 0 of
    [Runtime.Pool.shared (min 2 (Domain.recommended_domain_count ()))],
    submits each as a pool task and runs the race runs itself before
    awaiting them help-first: on two cores the two halves overlap, and the
    caller takes whatever observations the other executor has not
    started; on one core they run inline after the race runs. Every run is
    deterministic given its seed, so the verdict is the same either way. *)

type observation = {
  o_result : int;
  o_globals : (string * int array) list;
      (** final globals, transform-internal ["__"] names excluded *)
  o_prints : int list list;
}

val observation_of :
  result:int -> globals:(string * int array) list -> int list list -> observation
(** One run's observation from its entry result, final globals and prints,
    the prints in reverse order as an [on_print] callback collects them. *)

val observe : ?seed:int -> Mil.Ast.program -> observation

val seed_free : Mil.Ast.program -> bool
(** No [Par] and no call to [rand] in any function: the scheduler's seed
    cannot reach such a program's run, so it observes the same at every
    seed. *)

val schedule_determinate : Mil.Ast.program -> bool
(** No function calls [rand] or [print], and none contains [Lock],
    [Unlock], [Barrier], [Atomic_assign] or [Free]: the program's threads
    meet only at [Par]'s fork and join. A race-free run of such a program
    observes what its run at any other seed would. *)

val diff_observations : observation -> observation -> string list
(** Human-readable discrepancies; empty means observably equal. *)

type verdict = {
  v_ok : bool;
  v_seeds : int list;
  v_mismatches : (int * string) list;  (** (seed, issue) *)
  v_new_racy : string list;
      (** variables racy in the transformed race run but not the original *)
  v_racy_raw : int;
      (** distinct read-after-write races in the transformed race run *)
}

val default_seeds : int list

val differential :
  ?seeds:int list ->
  original:Mil.Ast.program ->
  transformed:Mil.Ast.program ->
  unit ->
  verdict
(** Counts the outcome in the [Obs] registry
    ([transform.validate.pass] / [transform.validate.fail]), the
    interpreter runs it made, race runs included
    ([transform.validate.runs]), the race runs made without preemption,
    kept or discarded ([transform.validate.cooperative]), and the
    transformed program's observations at later seeds that its race run
    decided ([transform.validate.decided]). Times the race runs as one
    [validate.race_check] span and each plain observation as a
    [validate.observe] span; each of those is one pool task, counted in
    [runtime.tasks], and may run on another domain.
    Its race runs publish no [profiler.*] metrics and no [profile] span. *)

val verdict_to_string : verdict -> string

type distribution = {
  d_threads : (int * int) list;  (** thread id -> profiled accesses *)
  d_total : int;
  d_critical : int;      (** main-thread work + heaviest spawned thread *)
  d_serial_total : int;  (** accesses of the original serial run *)
  d_measured_speedup : float;
      (** serial work over the critical path proxy — the "applied" number
          to place next to the modeled {!Discovery.Schedule} speedup *)
  d_parallel_fraction : float;  (** share of work off the main thread *)
}

val measure :
  ?label:string ->
  original:Mil.Ast.program ->
  Mil.Ast.program ->
  distribution
(** [label] additionally publishes the critical-path speedup proxy as the
    [Obs] gauge [transform.proxy.<label>] — the per-suggestion number
    {!Measure} correlates against real wall-clock speedups. *)

val distribution_to_string : distribution -> string
