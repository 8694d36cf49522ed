(** Fixed-size chunks, the unit of transfer between the producer (the
    executing program) and the profiler's worker threads (§2.3.3).

    A chunk is a packed int buffer with a fixed number of ints per entry.
    An entry is either an access, its fields stored unboxed, or the removal
    of one address's shadow slot (lifetime analysis, slot migration). *)

type t

val create : ?capacity:int -> ?seq:int -> unit -> t
(** A fresh chunk of [capacity] (default 512) entries; [seq] (default 0)
    is the producer-assigned sequence number. *)

val seq : t -> int
(** The producer-assigned sequence number — labels this chunk's consumption
    span on a worker's trace timeline. *)

val set_seq : t -> int -> unit

val capacity : t -> int
val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val push_access : t -> Event.access_sink
(** Append one access. The caller must check {!is_full} first. *)

val push_remove : t -> int -> unit
(** Append the removal of one address's shadow slot. *)

val iter : t -> access:Event.access_sink -> remove:(int -> unit) -> unit
(** Decode the entries in push order. *)

val reset : t -> unit
(** Empty the chunk for reuse (chunk recycling, §2.3.3); O(1). *)
