(** Fixed-size chunks, the unit of transfer between the producer (the
    executing program) and the profiler's worker threads (§2.3.3). The
    parallel profiler's chunks are the slots of one ring per worker
    ([Profiler.Spsc_queue]), each filled and read in place.

    A chunk is a packed int buffer with a fixed number of ints per entry.
    An entry is either an access, its fields stored unboxed, or the removal
    of one address's shadow slot (lifetime analysis, slot migration). *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh chunk of [capacity] (default 512) entries. *)

(** {2 The packed layout}

    A producer on a hot path may fill {!data} in place instead of calling
    {!push_access}, then publish the entry count with {!set_length}. Entry
    [i] occupies [data.(stride * i)] to [data.(stride * i + stride - 1)]:
    the kind code, then [addr], [var], [line], [thread], [time], [op] and
    [lstack]. The kind code is 0 for a read, {!write_code} for a write,
    plus {!locked_code} when the thread held a lock; a slot removal is
    {!remove_code} followed by its address. *)

val stride : int
val write_code : int
val locked_code : int
val remove_code : int

val data : t -> int array
(** The packed entries; its length is [stride * capacity]. *)

val set_length : t -> int -> unit
(** Set the number of filled entries, after filling {!data} in place; 0
    empties the chunk for a refill. *)

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
