(** Timestamp-reversal race detection (§2.3.4) without a dependence table.

    A race-only counterpart of {!Engine} for consumers that read only the
    race signal ([Transform.Validate]'s race runs, [discopop races]). It
    keeps the same address-indexed {!Sigmem.Perfect} shadow and applies the
    engine's rule with skip off and lifetime analysis on, but builds a
    dependence record only when it is racy. On the same access stream its
    {!races} equal {!Engine.races}, and {!racy} holds exactly the engine's
    records whose [racy] flag is set. *)

type t

val create : lstacks:Trace.Intern.Lstack.t -> t
(** A detector over accesses whose loop stacks are ids into [lstacks], the
    run's table (racy records carry their carrying loop, as the engine's
    do). *)

val feed_fields : t -> Trace.Event.access_sink

val feed_dealloc : t -> (int * int * string) list -> unit
(** Clear dead [(base, len, var)] ranges, as {!Engine.feed_dealloc} does
    with lifetime analysis on. *)

val races : t -> (string * int * int) list
(** Distinct potential races: (variable, earlier line, later line), sorted. *)

val racy : t -> Dep.Set_.t
(** The racy dependence records, without provenance. *)

val run :
  ?seed:int ->
  ?on_print:(int list -> unit) ->
  Mil.Ast.program ->
  t * Mil.Interp.run_result
(** Run [prog] under [scramble_unlocked] (§2.3.4) at [seed] (default 42),
    as [Serial.profile ~scramble_unlocked:true] schedules it, with every
    access and deallocation fed to a fresh detector. *)
