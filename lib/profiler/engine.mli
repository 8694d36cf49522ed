(** The dependence-building engine: Algorithm 2 (signature-based profiling),
    the §2.4 skip optimization, variable-lifetime analysis (§2.3.5), and
    timestamp-based race flagging (§2.3.4).

    The engine is a functor over the shadow-memory interface, so each
    backend gets a monomorphic copy of the per-access hot loop (no closure
    or dispatch records on the hot path). The [shadow_kind]-driven API below
    wraps the three standard instantiations; one instance also serves as the
    per-worker consumer of the parallel profiler. *)

module Event = Trace.Event
module Cell = Sigmem.Cell

type shadow_kind =
  | Signature of int  (** approximate, fixed slot count *)
  | Perfect           (** exact, hash-table backed *)
  | Paged             (** exact, two-level page table *)

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

(** The monomorphic engine over one shadow backend. [Make(S).t] runs
    Algorithm 2 with direct calls into [S] — instantiate it to profile over
    a custom store; the three standard backends are pre-instantiated behind
    {!create}. *)
module Make (S : Sigmem.Shadow.S) : sig
  type t

  val create : ?skip:bool -> ?lifetime:bool -> slots:int -> unit -> t

  val feed_fields : t -> Event.access_sink
  (** Algorithm 2 on one dynamic memory instruction with the access fields
      passed unboxed: the zero-allocation entry point — no [Event.access]
      record is built anywhere on this path. *)

  val feed_dealloc : t -> (int * int * string) list -> unit
  val word_footprint : t -> int
  val observe : prefix:string -> t -> unit
end

type t

val create : ?skip:bool -> ?lifetime:bool -> shadow_kind -> t
(** [skip] enables the §2.4 optimization; [lifetime:false] disables
    variable-lifetime analysis (ablation). *)

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
(** Resident words: shadow store + per-op skip state + dependence table. *)

val observe : ?prefix:string -> t -> unit
(** Publish end-of-run statistics (accesses, deps, skip stats, shadow slot
    usage and footprint) into the {!Obs} registry under [prefix] (default
    ["engine"]). No-op when observability is disabled. *)
