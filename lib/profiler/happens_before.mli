(** Happens-before race detection (FastTrack: Flanagan & Freund, PLDI 2009)
    for [Transform.Validate].

    A vector clock per thread, lock and barrier, fed by
    {!Mil.Interp.run}'s sync hook, and per address the last write's epoch
    and the reads since (one epoch, or a read vector once two reads are
    concurrent). Two conflicting accesses that happens-before does not
    order are reported, whatever the interleaving: unlike the paper's
    timestamp-reversal rule (§2.3.4, kept in {!Engine} and
    [Serial.profile ~scramble_unlocked:true]), the verdict needs no
    scrambled push order and does not depend on where accesses fall in a
    scramble window.

    Clocks are sparse: a thread's holds only the threads in its past, so a
    fork-join recursion's clocks hold O(n log n) entries in all, not one
    per spawned thread each. Nothing is allocated per access but on a
    race or when two concurrent reads of an address first meet. *)

type t

val create : unit -> t
(** A detector whose main thread is thread 0. *)

val feed_fields : t -> Trace.Event.access_sink
(** One access, in execution order; only its kind, address, variable, line
    and thread are read. *)

val feed_sync : t -> Trace.Event.sync_sink

val feed_dealloc : t -> (int * int * string) list -> unit
(** Forget the accesses to dead [(base, len, var)] ranges: an address's
    next owner is unrelated to its last. *)

val races : t -> (string * int * int) list
(** Distinct races: (variable, line of the earlier access, line of the
    later), sorted. *)

val racy_raw : t -> int
(** Distinct read-after-write races: a read not ordered after the last
    write. *)

val peak_entries : t -> int
(** The most clock entries the threads not yet joined held at once. *)

val run :
  ?seed:int ->
  ?preempt:bool ->
  ?on_print:(int list -> unit) ->
  Mil.Ast.program ->
  t * Mil.Interp.run_result
(** Run [prog] instrumented and unscrambled at [seed] (default
    {!Mil.Compile.Rng.default_seed}), its accesses, deallocations and sync
    operations fed to a fresh detector. [preempt] is {!Mil.Interp.run}'s (default [true]): with
    [preempt:false] a fork-join program runs its serial elision, with no
    fiber switch, and the detector still sees every pair of accesses its
    forks and joins leave unordered, since the happens-before order of
    such a run does not depend on the interleaving. *)
