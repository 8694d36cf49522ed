(** Differential validation and measured work distribution for transformed
    programs — the dynamic backstop behind [discopop parallelize
    --validate].

    State equivalence runs original and transformed under several scheduler
    seeds and compares observable state (entry return value, final globals
    of the original program, [print] stream); the race check runs both
    with [scramble_unlocked] into {!Profiler.Race}, which applies the
    engine's timestamp-reversal rule but builds only the racy dependence
    records, and requires no {e new} racy variables in the transformed
    program. {!verdict}'s [v_racy_raw] still counts the transformed run's
    racy RAW records exactly. An original without [Par] is not race-run: a
    single thread has no racy variables.

    Each program runs as few times as the verdict needs: a race run at the
    first seed is also that seed's observation, and a {!seed_free}
    original is observed once for every seed. Per seed after the first,
    the transformed program and a non-seed-free original run once each,
    uninstrumented.

    Those plain observations do not depend on the race runs, so
    {!differential} enrols as executor 0 of
    [Runtime.Pool.shared (min 2 (Domain.recommended_domain_count ()))],
    submits them as one task and runs the race runs itself before awaiting
    it: on two cores the two halves overlap, and on one the task runs
    inline after the race runs. Every run is deterministic given its seed,
    so the verdict is the same either way. *)

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

val diff_observations : observation -> observation -> string list
(** Human-readable discrepancies; empty means observably equal. *)

type verdict = {
  v_ok : bool;
  v_seeds : int list;
  v_mismatches : (int * string) list;  (** (seed, issue) *)
  v_new_racy : string list;
      (** variables racy in the transformed race run but not the original *)
  v_racy_raw : int;  (** racy RAW records in the transformed race run *)
}

val racy_vars : Profiler.Serial.result -> string list
(** Variables with an observed timestamp reversal, from the race list and
    the racy flag of merged records, sorted — what {!differential} computes
    from its race runs. *)

val default_seeds : int list

val differential :
  ?seeds:int list ->
  original:Mil.Ast.program ->
  transformed:Mil.Ast.program ->
  unit ->
  verdict
(** Counts the outcome in the [Obs] registry
    ([transform.validate.pass] / [transform.validate.fail]), and times its
    two halves as the [validate.race_check] and [validate.observe] spans;
    the second is the one pool task a call adds to [runtime.tasks], and
    may run on another domain.
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
  ?seed:int ->
  ?label:string ->
  original:Mil.Ast.program ->
  Mil.Ast.program ->
  distribution
(** [label] additionally publishes the critical-path speedup proxy as the
    [Obs] gauge [transform.proxy.<label>] — the per-suggestion number
    {!Measure} correlates against real wall-clock speedups. *)

val distribution_to_string : distribution -> string
