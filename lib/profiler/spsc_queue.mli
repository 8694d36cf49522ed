(** Single-producer-single-consumer ring of chunk buffers (§2.3.3), one
    per profiler worker. The producer fills the tail slot in place and
    publishes it; the consumer reads the head slot in place and frees it. A
    slot's buffer is allocated on its first fill and refilled on each later
    lap, never handed back. A side that must wait spins for about one
    chunk's fill time, then parks until the other side moves its index; no
    wake-up is lost.

    [~locked:false] is lock-free: an atomic store on an index is the only
    synchronisation. [~locked:true] is Fig. 2.9's lock-based baseline: each
    index read and update takes one mutex. *)

type t

val create : locked:bool -> capacity:int -> t
(** Capacity, in slots, is rounded up to a power of two (min 2). *)

val length : t -> int
(** Published slots not yet released. *)

(** {2 Producer side} *)

val has_room : t -> bool
(** The tail slot is free: fewer than capacity slots are published. *)

val slot : t -> Trace.Chunk.t
(** Waits (spin, then park) while the ring is full, then returns the tail
    slot's buffer, empty, allocated on the slot's first fill. Fill it in
    place with {!Trace.Chunk.push_access} and {!Trace.Chunk.push_remove};
    {!push} publishes it. *)

val push : t -> unit
(** Publish the tail slot, filled with at least one entry since {!slot}
    returned it. Wakes a parked consumer. *)

val close : t -> unit
(** Publish the stop mark, an empty tail slot, waiting for room as {!slot}
    does. Discards any entries written since {!slot}; allocates nothing. *)

val buffers : t -> int
(** Buffers allocated so far: one per slot ever filled, at most
    capacity. *)

(** {2 Consumer side} *)

val next : t -> Trace.Chunk.t
(** Waits (spin, then park) while the ring is empty, then returns the head
    slot's buffer, to read in place. Empty ({!Trace.Chunk.is_empty}) when
    it is the stop mark. *)

val release : t -> unit
(** Free the head slot for the producer to refill. Wakes a parked
    producer. *)

(** {2 Wait ledger} *)

type waits = {
  waits : int;    (** calls that found the ring full (empty) and waited *)
  wait_ns : int;  (** time those calls waited, spinning and parked *)
  parks : int;    (** waits that ended up parked *)
}

val producer_waits : t -> waits
(** {!slot}'s and {!close}'s wait ledger. Producer-owned; exact once the
    producer is done. *)

val consumer_waits : t -> waits
(** {!next}'s wait ledger. Consumer-owned; exact once the consumer is
    joined. *)
