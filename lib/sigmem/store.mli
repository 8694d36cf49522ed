(** Flat off-heap backing store for shadow slots.

    A Bigarray of native ints holding fixed-width packed slots in
    (read, write) pairs — one pair per address slot, the write slot right
    after the read slot. A slot holds an access's time, lock bit, line,
    variable, thread, memory operation and loop stack; an empty slot is a
    single load away. Updates never touch the GC write barrier (the data
    lives outside the OCaml heap).

    The layout is private to this module. The accessors are [[@inline]],
    so a caller such as the profiler's engine reads and writes slots in
    place with no call. *)

type t

val create : int -> t
(** [create n] is a zeroed store of [n] slot pairs. *)

val max_pairs : int
(** Stores of more pairs cannot be created: their size in words would
    overflow an int. *)

val resize : t -> int -> t
(** [resize t n] is a fresh store of [n >= pairs t] pairs holding [t]'s
    pairs, the rest empty. *)

val read_base : int -> int
(** Base index of pair [i]'s read slot, which is also the pair's base. *)

val write_base : int -> int
(** Base index of pair [i]'s write slot. *)

val write_slot : int -> int
(** [write_slot base]: the write slot of the pair whose base is [base]. *)

val is_write_slot : int -> bool
(** Is the slot at [base] a pair's write slot? *)

(** {2 One slot, at its base} *)

val is_empty : t -> int -> bool
(** One load. *)

val time : t -> int -> int
val locked : t -> int -> bool
val line : t -> int -> int
val var : t -> int -> int
val thread : t -> int -> int
val op : t -> int -> int
val lstack : t -> int -> int

val set :
  t -> int -> time:int -> locked:bool -> line:int -> var:int -> thread:int ->
  op:int -> lstack:int -> unit
(** Store an access into the slot at [base]. *)

val clear : t -> int -> unit
(** Zero the slot at [base]. *)

val clear_pair : t -> int -> unit
(** Zero both slots of pair [i]. *)

val occupied : t -> int
(** Occupied (non-empty) slots of either kind; O(slots), observe-time
    only. *)

val words : t -> int
(** Resident words of the backing array. *)
