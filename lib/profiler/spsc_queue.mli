(** Lock-free single-producer-single-consumer bounded queue (§2.3.3).

    The producer owns the tail index, the consumer the head; as long as they
    differ the two sides touch disjoint slots, so an atomic store on the
    index is the only synchronisation — no slot is ever locked. A side that
    must wait spins for about one chunk's fill time, then parks on a
    condition variable until the other side moves its index; no wake-up is
    lost. *)

type 'a t

val create : capacity:int -> 'a t
(** Capacity is rounded up to a power of two (min 2). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val try_push : 'a t -> 'a -> bool
(** Producer side; [false] when full. Wakes a parked consumer. *)

val push : 'a t -> 'a -> unit
(** Producer side: waits (spin, then park) while the queue is full. *)

val try_pop : 'a t -> 'a option
(** Consumer side; [None] when empty. Wakes a parked producer. *)

val pop : 'a t -> 'a
(** Consumer side: waits (spin, then park) while the queue is empty. *)

type waits = {
  waits : int;    (** calls that found the queue full (empty) and waited *)
  wait_ns : int;  (** time those calls waited, spinning and parked *)
  parks : int;    (** waits that ended up parked *)
}

val producer_waits : 'a t -> waits
(** The blocking {!push}'s wait ledger. Producer-owned; exact once the
    producer is done. *)

val consumer_waits : 'a t -> waits
(** The blocking {!pop}'s wait ledger. Consumer-owned; exact once the
    consumer is joined. *)
