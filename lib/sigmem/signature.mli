(** Signature-based shadow memory (§2.3.2): a fixed-length slot array indexed
    by a single hash of the memory address. Distinct addresses hashing to the
    same slot collide — the accuracy/space trade-off of Table 2.6. One hash
    function (not a k-hash Bloom filter) is used so variable-lifetime
    analysis can remove elements. Read and write signatures share one flat
    off-heap {!Store}, one (read, write) slot pair per hash index. *)

(** Slot occupancy, kept by whoever stores accesses (see {!count_store}). *)
type counts = {
  mutable occupied_reads : int;
  mutable occupied_writes : int;
  mutable takeovers : int;
      (** occupied-slot overwrites whose stored variable differs from the
          incoming one — a cheap collision proxy for the false-positive
          pressure of Table 2.6 (slots do not retain the hashed address) *)
}

type t = private {
  slots : int;
  mask : int;  (** [slots - 1] for a power of two, else 0 *)
  store : Store.t;  (** [slots] (read, write) pairs *)
  counts : counts;
}

val hash_addr : int -> int -> int
(** [hash_addr addr slots]: the slot index, via splitmix-style bit mixing so
    dense bump-allocator addresses land in quasi-random slots. *)

val create : slots:int -> t
(** Two signatures (reads and writes) of [slots] slots each. *)

val resolve : t -> int -> int
(** [resolve t addr]: hash [addr] once to the base of its slot pair in
    [t.store], pair [hash_addr addr slots]. Collisions resolve to another
    address's slots — that is the point. *)

val count_store : t -> int -> var:int -> unit
(** [count_store t base ~var] updates [t.counts] for storing an access to
    [var] into the read or write slot at [base], before the store: an empty
    slot becomes occupied, an occupied one holding another variable is a
    takeover. Every writer of accesses calls it; it is inlined. *)

val remove : t -> addr:int -> unit
(** Variable-lifetime analysis (§2.3.5): clear [addr]'s slots. *)

val slots_used : t -> int
(** Occupied slots across both signatures. *)

val collision_risk : t -> float
(** Current false-positive risk: the occupied fraction across both
    signatures, i.e. the probability a fresh address's probe hits a stale
    colliding slot right now — the per-witness analogue of Eq. 2.2. Feeds
    the per-dependence risk column of [discopop explain]. *)

val predicted_fpr : slots:int -> addresses:int -> float
(** Equation 2.2: the probability that a given slot is occupied after
    inserting [addresses] distinct addresses into [slots] slots,
    [1 - (1 - 1/m)^n]. *)

val word_footprint : t -> int
(** Approximate resident words of the store itself. *)

val extra_stats : t -> (string * int) list
(** Slots, per-signature occupancy, takeovers: the engine's [shadow.*]
    gauges. *)
