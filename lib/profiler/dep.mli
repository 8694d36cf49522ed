(** Representation and runtime merging of data dependences (§2.3.1, §2.3.5).

    A dependence is the triple <sink, type, source> with attributes: variable
    name, thread ids, a loop-carried tag, and a race flag. Identical
    dependences are merged at runtime — the paper's 10^5x output-size
    reduction. *)

type dtype = Raw | War | Waw | Init

val dtype_to_string : dtype -> string

type t = {
  sink_line : int;
  sink_thread : int;
  dtype : dtype;
  src_line : int;       (** 0 for INIT *)
  src_thread : int;
  var : string;         (** variable at the source access; ["*"] for INIT *)
  carrier : int option; (** carrying loop's header line, if loop-carried *)
  racy : bool;          (** timestamp reversal observed (potential race) *)
}

val init_dep : sink_line:int -> sink_thread:int -> t
(** The INIT record for a first write. *)

val compare : t -> t -> int

val to_string : ?threads:bool -> t -> string
(** The paper's [{TYPE file:line|var}] source form; [threads] adds thread ids
    (Fig. 2.3). *)

(** Provenance of a merged record: its first dynamic witness and the shadow
    backend's false-positive risk at that moment. Makes every reported
    dependence explainable ([discopop explain]). *)
type prov = {
  first_time : int;     (** interpreter timestamp of the witnessing sink access *)
  first_index : int;    (** engine-local dynamic access index of that witness *)
  witness_domain : int; (** profiler domain that built the record *)
  risk : float;         (** shadow false-positive risk at witness time; 0 = exact *)
}

(** A merged multiset of dependences: each distinct record stored once with
    its occurrence count, plus first-witness provenance when profiled. *)
module Set_ : sig
  type dep = t
  type t

  val create : unit -> t
  val add : t -> dep -> unit

  val note :
    t -> dep -> time:int -> index:int -> domain:int -> risk:(unit -> float) ->
    int ref
  (** Like {!add}, recording first-witness provenance when [dep] is new;
      [risk] is only evaluated then. Accesses must arrive in increasing
      [time] order (as every engine produces them) for the stored witness to
      be the earliest. Returns the record's count cell, for the engine's
      per-op duplicate-suppression fast path. The cell is owned by this set;
      change it only through {!bump}. *)

  val bump : t -> int ref -> unit
  (** [bump t n]: one more occurrence of the record whose count cell [n]
      the caller holds (from {!note}). No hashing and no lookup; inlined. *)

  val restore : t -> dep -> count:int -> prov option -> unit
  (** Add [count] instances of [dep] with one lookup, keeping [prov] as its
      witness when [dep] is new: how {!Depfile.parse} reads a record back. *)

  val prov : t -> dep -> prov option

  val risk_of : t -> dep -> float
  (** [prov]'s risk, or 0 for records added without provenance. *)

  val mem : t -> dep -> bool
  val cardinal : t -> int
  (** Distinct records. *)

  val occurrences : t -> int
  (** Pre-merge dynamic instances. *)

  val merging_factor : t -> float
  (** Average instances per record (§2.3.5). *)

  val iter : (dep -> int -> unit) -> t -> unit
  val to_list : t -> (dep * int) list
  (** Sorted by {!compare}. *)

  val to_ranked : t -> (dep * int * prov option) list
  (** Hottest-first (occurrence count descending, ties by {!compare}) — the
      order [discopop explain] presents. *)

  val union : t -> t -> unit
  (** [union into from] merges [from] into [into] — the cheap final step of
      the parallel profiler (Fig. 2.2). Provenance keeps the earliest
      witness. *)

  val strip : dep -> dep
  (** Clears the race flag, which is not part of identity for accuracy
      comparisons. *)

  val accuracy : truth:t -> got:t -> float * float
  (** Record-level [(FPR, FNR)] of [got] against the exact [truth]
      (§2.5.1). *)

  val accuracy_weighted : truth:t -> got:t -> float * float
  (** Occurrence-weighted [(FPR, FNR)]: each record weighted by its merged
      instance count, so a one-off hash collision counts one instance against
      the millions of instances of hot true dependences — how the paper's
      Table 2.6 reaches sub-percent rates. *)

  val in_range : t -> lo:int -> hi:int -> dep list
  (** Dependences whose sink lies in [[lo, hi]]. *)
end
