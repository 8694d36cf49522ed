(** Flat off-heap backing store for shadow slots.

    A Bigarray of native ints holding fixed-width packed slots in
    (read, write) pairs — one pair per address slot, the write slot right
    after the read slot. A slot's fields sit at these offsets from its
    base:

    {v 0  time lsl 1 lor locked   1 line   2 var   3 thread   4 op   5 lstack v}

    so 0 marks an empty slot and emptiness is a single load. The type is
    a visible Bigarray alias so that the profiler's engine reads and writes
    slots in place, inline, at these offsets. Updates never touch the GC write barrier (the data lives outside
    the OCaml heap). *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val field_count : int
(** Ints per slot; also the offset of a pair's write slot from its read
    slot. *)

val pair_width : int
(** Ints per (read, write) slot pair, [2 * field_count]. *)

val create : int -> t
(** [create n] is a zeroed store of [n] slot pairs. *)

val pairs : t -> int

val read_base : int -> int
(** Base index of pair [i]'s read slot, which is also the pair's base. *)

val write_base : int -> int
(** Base index of pair [i]'s write slot. *)

val is_empty : t -> int -> bool
(** [is_empty t base]: is the slot at [base] empty? One load. *)

val set :
  t -> int -> time:int -> locked:bool -> line:int -> var:int -> thread:int ->
  op:int -> lstack:int -> unit
(** Encode an access into the slot at [base], for writers other than the
    engine. *)

val var : t -> int -> int
(** The stored variable symbol of the slot at [base]. *)

val clear : t -> int -> unit
(** Zero the slot at [base]. *)

val clear_pair : t -> int -> unit
(** Zero both slots of pair [i]. *)

val occupied : t -> int
(** Occupied (non-empty) slots of either kind; O(slots), observe-time
    only. *)

val words : t -> int
(** Resident words of the backing array. *)
