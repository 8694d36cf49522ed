(* Flat off-heap backing store for shadow slots.

   A store is a Bigarray of native ints holding fixed-width packed slots —
   the reproduction of the paper's compact shadow slots (§2.3.2: 3 bytes per
   access record there; here 6 machine words of interned attribution data).
   Every shadow backend keeps its slots in one or more of these arrays
   instead of boxed per-slot records, which buys three things on the
   per-access hot path:

   - zero allocation: storing an access writes 6 ints in place (no record
     construction, no minor-heap churn);
   - no GC write barrier: Bigarray data lives outside the OCaml heap, so
     slot updates never call [caml_modify] (an array of boxed cells pays the
     barrier on every store);
   - locality: a slot's fields are adjacent, and the read/write slots of one
     address are adjacent to each other, so a shadow probe touches one or
     two cache lines instead of chasing per-cell pointers.

   Layout: slots come in (read, write) pairs, one pair per address slot; the
   write slot follows the read slot. Each slot is [field_count] ints, at
   these offsets from the slot's base:

     0  time lsl 1 lor locked   1  line   2  var   3  thread   4  op
     5  lstack

   so 0 in field 0 marks an empty slot ([time = 0] never occurs in real
   accesses) and emptiness is a single load. This module is the only one
   that knows the layout: the accessors below are inlined into their
   callers, so the engine's in-place reads and writes each compile to one
   load or store. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let field_count = 6
let pair_width = 2 * field_count

let create pairs : t =
  let a =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (pairs * pair_width)
  in
  Bigarray.Array1.fill a 0;
  a

let pairs (t : t) = Bigarray.Array1.dim t / pair_width

(* Past this, the store's size in words would overflow an int. *)
let max_pairs = max_int / pair_width

let resize (t : t) pairs =
  let a = create pairs in
  Bigarray.Array1.blit t (Bigarray.Array1.sub a 0 (Bigarray.Array1.dim t));
  a

let[@inline] read_base i = i * pair_width
let[@inline] write_slot base = base + field_count
let[@inline] write_base i = write_slot (read_base i)
let[@inline] is_write_slot base = base mod pair_width <> 0

let[@inline] get (t : t) i = Bigarray.Array1.unsafe_get t i

let[@inline] is_empty t base = get t base = 0
let[@inline] time t base = get t base lsr 1
let[@inline] locked t base = get t base land 1 = 1
let[@inline] line t base = get t (base + 1)
let[@inline] var t base = get t (base + 2)
let[@inline] thread t base = get t (base + 3)
let[@inline] op t base = get t (base + 4)
let[@inline] lstack t base = get t (base + 5)

let[@inline] set (t : t) base ~time ~locked ~line ~var ~thread ~op ~lstack =
  Bigarray.Array1.unsafe_set t base ((time lsl 1) lor Bool.to_int locked);
  Bigarray.Array1.unsafe_set t (base + 1) line;
  Bigarray.Array1.unsafe_set t (base + 2) var;
  Bigarray.Array1.unsafe_set t (base + 3) thread;
  Bigarray.Array1.unsafe_set t (base + 4) op;
  Bigarray.Array1.unsafe_set t (base + 5) lstack

let clear (t : t) base =
  for k = 0 to field_count - 1 do
    Bigarray.Array1.unsafe_set t (base + k) 0
  done

let clear_pair (t : t) i = clear t (read_base i); clear t (write_base i)

(* Number of occupied (non-empty) slots, both kinds; observe-time only. *)
let occupied (t : t) =
  let n = ref 0 in
  let slots = 2 * pairs t in
  for s = 0 to slots - 1 do
    if not (is_empty t (s * field_count)) then incr n
  done;
  !n

(* Resident words of the backing array (one int element = one word). *)
let words (t : t) = Bigarray.Array1.dim t
