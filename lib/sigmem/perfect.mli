(** The "perfect signature" (§2.5.1): an exact shadow memory in which every
    address has its own entry, so collisions — and hence false positives and
    false negatives — cannot occur. The ground-truth baseline for measuring
    the signature's FPR/FNR, and the 100%-accuracy option of §2.3.7.

    Implemented as a direct, address-indexed flat off-heap {!Store} of
    (read, write) slot pairs: address [a]'s pair sits at base
    [Store.read_base a], so resolving an address in range is one compare
    and one multiplication, inline. Memory is O(highest address touched),
    12 words per address. *)

type t = private {
  mutable data : Store.t;
      (** the slot pairs, pair [a] owned by address [a]; replaced when the
          store grows *)
  mutable pairs : int;  (** pairs in [data]: addresses [\[0, pairs)] *)
}

val create : unit -> t

val resolve : t -> int -> int
(** [resolve t addr] is the base of [addr]'s slot pair in [t.data], growing
    the store on a first touch past its end (which replaces [t.data]). Read
    [t.data] after the call. The in-range case is inlined into the caller;
    growth stays out of line.

    @raise Invalid_argument on a negative address, or one so large that
    the store's size would overflow. *)

val remove : t -> addr:int -> unit
(** Clear [addr]'s slots; never grows the store. *)

val slots_used : t -> int

val capacity : t -> int
(** Pairs in the store. *)

val live : t -> int
(** Pairs holding a read or a write; O(capacity). *)

val word_footprint : t -> int

val extra_stats : t -> (string * int) list
(** Capacity and live pairs: the engine's [shadow.*] gauges. *)
