(** The parallel DiscoPoP profiler (§2.3.3, Fig. 2.2).

    The main thread executes the target program and packs its accesses into
    per-worker chunks ({!Trace.Chunk}); worker domains consume chunks
    through lock-free SPSC queues, run the dependence engine over their
    address shard (addresses distributed by [addr mod W], Eq. 2.1, and never
    moved), and keep thread-local dependence maps merged at the end, so the
    result equals {!Serial.profile}'s. A mutex-protected queue variant exists
    solely as the lock-based baseline of Fig. 2.9. *)

type queue_kind = Lockfree | Lock_based

type result = Serial.result

val profile :
  ?workers:int ->
  ?shadow_slots:int ->
  ?perfect:bool ->
  ?skip:bool ->
  ?queue:queue_kind ->
  ?chunk_capacity:int ->
  ?cancelled:(unit -> bool) ->
  Mil.Ast.program ->
  result
(** Profile with [workers] consumer domains. [perfect] switches the workers
    to the exact shadow memory; otherwise each worker gets
    [shadow_slots / workers] signature slots. [cancelled] is polled by the
    interpreter as in {!Serial.profile}. If the run raises (the program's
    runtime error, {!Mil.Interp.Cancelled}, a failed [Domain.spawn]), the
    workers already started are stopped and joined before the exception
    propagates. *)
