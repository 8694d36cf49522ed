(** Fixed-size chunks, the unit of transfer between the producer (the
    executing program) and the profiler's worker threads (§2.3.3). The
    parallel profiler's chunks are the slots of one ring per worker
    ([Profiler.Spsc_queue]), each filled and read in place.

    A chunk is a packed int buffer with a fixed number of ints per entry.
    An entry is either an access, its fields stored unboxed, or the removal
    of one address's shadow slot (lifetime analysis, slot migration). The
    encoding is private to this module; {!push_access}, {!push_remove} and
    {!is_full} are inlined into their callers. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh chunk of [capacity] (default 512) entries. *)

val clear : t -> unit
(** Empty the chunk for a refill. *)

val capacity : t -> int
val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val push_access : t -> Event.access_sink
(** Append one access. The caller must check {!is_full} first.

    @raise Invalid_argument on a full chunk. *)

val push_remove : t -> int -> unit
(** Append the removal of one address's shadow slot. The caller must check
    {!is_full} first.

    @raise Invalid_argument on a full chunk. *)

val iter : t -> access:Event.access_sink -> remove:(int -> unit) -> unit
(** Decode the entries in push order. *)
