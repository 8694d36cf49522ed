(** Two-level paged exact shadow memory: the address space is split into
    pages allocated on first touch, so lookups are two array indexings —
    faster than hashing, memory proportional to the touched address range.
    The "multilevel tables" design the paper mentions in §2.3.2. Each page
    is one flat off-heap {!Store} of (read, write) slot pairs. *)

type t = private {
  page_bits : int;
  mutable dir : Store.t array;  (** pages, indexed by [addr lsr page_bits] *)
  mutable cur : Store.t;  (** the page located by the last {!resolve} *)
  mutable pages_allocated : int;
}

val default_page_bits : int

val create : unit -> t
(** Pages are allocated on demand. *)

val resolve : t -> int -> int
(** [resolve t addr] locates (first-touch allocating) [addr]'s page, leaves
    it in [t.cur], and returns the base of [addr]'s slot pair there.

    @raise Invalid_argument on a negative address. *)

val remove : t -> addr:int -> unit
(** Clears [addr]'s slots; never allocates a page. *)

val slots_used : t -> int
val word_footprint : t -> int

val pages_allocated : t -> int
(** Pages materialised by first-touch allocation so far. *)

val extra_stats : t -> (string * int) list
(** The allocated-page count: the engine's [shadow.*] gauge. *)
