(** The serial DiscoPoP profiler front end: run a MIL program under the
    instrumenting interpreter, feeding every event to one dependence engine
    plus the PET builder. This is the "serial" configuration of Fig. 2.9 and
    the reference the lock-free parallel profiler must agree with. *)

type result = {
  deps : Dep.Set_.t;
  pet : Pet.t;
  races : (string * int * int) list;
  accesses : int;            (** dynamic memory instructions profiled *)
  skip_stats : Engine.skip_stats;
  footprint_words : int;     (** resident words of profiling structures *)
  merging_factor : float;
  redistributions : int;
  (** always 0: neither profiler moves an address between workers. Kept
      because the repository benchmark still reads it. *)
  per_worker : int array;
  (** accesses processed by each parallel worker, summing to [accesses];
      [[| accesses |]] for a serial run *)
}

val profile :
  ?shadow:Engine.shadow_kind ->
  ?skip:bool ->
  ?lifetime:bool ->
  ?seed:int ->
  ?scramble_unlocked:bool ->
  ?cancelled:(unit -> bool) ->
  Mil.Ast.program ->
  result
(** [cancelled] is polled periodically by the interpreter; returning true
    aborts the run with {!Mil.Interp.Cancelled} (see the batch driver's
    timeout handling and [discopop serve] deadlines). *)

val report : ?threads:bool -> result -> string
(** The profile in the paper's text format. *)

val publish :
  accesses:int ->
  deps:Dep.Set_.t ->
  footprint_words:int ->
  merging_factor:float ->
  lstacks:Trace.Intern.Lstack.t ->
  unit
(** Publish run-level metrics ([profiler.accesses], [profiler.deps],
    footprint and merging-factor gauges, and the size of the run's
    loop-stack table as [profiler.lstack.nodes] and [profiler.lstack.words])
    into the {!Obs} registry. Shared
    with {!Parallel.profile} so serial and parallel runs of the same workload
    report under identical names. No-op when observability is disabled. *)
