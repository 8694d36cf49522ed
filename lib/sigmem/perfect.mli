(** The "perfect signature" (§2.5.1): an exact shadow memory in which every
    address has its own entry, so collisions — and hence false positives and
    false negatives — cannot occur. The ground-truth baseline for measuring
    the signature's FPR/FNR, and the 100%-accuracy option of §2.3.7.

    Implemented as an open-addressed, linear-probing int-keyed table over a
    flat off-heap {!Store} of (read, write) slot pairs: one probe sequence
    per access resolves both slots, inserts allocate nothing on the minor
    heap, removals leave tombstones squeezed out on growth. *)

type t = private {
  mutable keys : int array;
  mutable data : Store.t;
      (** the slot pairs, the i-th key owning the i-th pair; replaced when
          the table grows *)
  mutable mask : int;
  mutable live : int;
  mutable tombs : int;
}

val create : unit -> t

val resolve : t -> int -> int
(** [resolve t addr] is the base of [addr]'s slot pair in [t.data],
    inserting [addr] on first touch (which may grow the table and replace
    [t.data]). Read [t.data] after the call. *)

val remove : t -> addr:int -> unit
(** Tombstone [addr]'s entry and clear its slots; never grows the table. *)

val slots_used : t -> int
val capacity : t -> int
val live : t -> int

val word_footprint : t -> int

val extra_stats : t -> (string * int) list
(** Capacity, live entries, tombstones: the engine's [shadow.*] gauges. *)
