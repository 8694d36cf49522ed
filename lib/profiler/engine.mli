(** The dependence-building engine: Algorithm 2 (signature-based profiling),
    the §2.4 skip optimization, variable-lifetime analysis (§2.3.5), and
    timestamp-based race flagging (§2.3.4).

    One module over both shadow backends: per access, the only call
    out of the engine is the signature's address hash (none for an
    in-range address of the address-indexed perfect table), and the engine
    reads and writes the shadow slots in place through {!Sigmem.Store}'s
    inlined accessors. (A functor over the backend would not give each
    backend its own copy: without flambda it is compiled once with
    indirect calls.) One instance also serves as the per-worker consumer
    of the parallel profiler. *)

module Event = Trace.Event

type shadow_kind =
  | Signature of int  (** approximate, fixed slot count *)
  | Perfect           (** exact, address-indexed table *)

(** Counters for Table 2.7 / Fig 2.13: skipped instructions classified by the
    dependence type they would have created. *)
type skip_stats = {
  mutable reads_total : int;       (** reads that lead to a dependence *)
  mutable writes_total : int;
  mutable reads_skipped : int;
  mutable writes_skipped : int;
  mutable skipped_raw : int;
  mutable skipped_war : int;
  mutable skipped_waw : int;
  mutable shadow_update_elided : int;  (** §2.4.3 special-case hits *)
}

type t

val create :
  ?skip:bool -> ?lifetime:bool -> lstacks:Trace.Intern.Lstack.t ->
  shadow_kind -> t
(** An engine over accesses whose loop stacks are ids into [lstacks], the
    run's table. [skip] enables the §2.4 optimization; [lifetime:false]
    disables variable-lifetime analysis (ablation). *)

val feed_fields : t -> Event.access_sink
(** Algorithm 2 on one dynamic memory instruction, access fields unboxed —
    the zero-allocation path every access takes. *)

val feed_dealloc : t -> (int * int * string) list -> unit
(** Clear dead [(base, len, var)] ranges so their slots can be reused without
    manufacturing false dependences. *)

val deps : t -> Dep.Set_.t
val races : t -> (string * int * int) list
(** Distinct potential races: (variable, earlier line, later line). *)

val skip_stats : t -> skip_stats
val processed : t -> int
val word_footprint : t -> int
(** Resident words: the shadow store, the per-op skip fingerprints and
    dedup slots, the carrier memo, and the dependence table. *)

val observe : ?prefix:string -> t -> unit
(** Publish end-of-run statistics (accesses, deps, skip stats, shadow slot
    usage and footprint) into the {!Obs} registry under [prefix] (default
    ["engine"]). No-op when observability is disabled. [.dedup.misses]
    counts the records neither way of their operation's dedup slots held,
    each of which was looked up in the dependence table. *)
