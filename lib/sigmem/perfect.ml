(* The "perfect signature" (§2.5.1): an exact shadow memory in which every
   address has its own entry, so hash collisions — and hence false positives
   and false negatives — cannot occur. Used as the ground-truth baseline for
   measuring the signature's FPR/FNR, and offered to users who need 100%
   accurate dependences (§2.3.7) at a time/memory premium.

   Implementation: a direct, address-indexed flat off-heap {!Store} of
   (read, write) slot pairs — address [a] owns pair [a], at base
   [Store.read_base a]. The interpreter's addresses are dense heap
   indices from 1 up to the heap's break, so no hashing is needed: a first
   touch past the end doubles the store until it covers the address and
   copies the old pairs across. Memory is therefore O(highest address
   touched): 12 words per address up to it, and at most twice that. A
   program that touches one far element of a huge array pays for the whole
   range; the interpreter's bump-allocated heap keeps that range dense.
   Removals (variable-lifetime analysis) clear the pair in place.

   Like every backend this is a resolver: {!resolve} maps an address to its
   pair's base in [data], and the caller reads and writes the slots there in
   place. An address in range resolves inline, with one compare and one
   multiplication; only a first touch past the end calls out, to grow. *)

type t = {
  mutable data : Store.t;
  mutable pairs : int;  (* pairs in [data]: addresses [0, pairs) resolve *)
}

let initial_capacity = 1024

(* Past this, the doubled store would have too many pairs. *)
let max_addr = Store.max_pairs / 4

let create () =
  { data = Store.create initial_capacity; pairs = initial_capacity }

(* Double until [addr] is covered: a power of two, so an address just past
   the top of a large array does not force another doubling soon after. *)
let grow t addr =
  let pairs = ref t.pairs in
  while !pairs <= addr do pairs := 2 * !pairs done;
  t.data <- Store.resize t.data !pairs;
  t.pairs <- !pairs

(* Out of line: the in-range check is the common case. *)
let[@inline never] resolve_slow t addr =
  if addr < 0 || addr > max_addr then
    invalid_arg "Perfect.resolve: address out of range";
  grow t addr;
  Store.read_base addr

let[@inline] resolve t addr =
  if addr >= 0 && addr < t.pairs then Store.read_base addr
  else resolve_slow t addr

let remove t ~addr =
  if addr >= 0 && addr < t.pairs then Store.clear_pair t.data addr

let slots_used t = Store.occupied t.data

let capacity t = t.pairs

(* Pairs holding a read or a write; O(capacity), observe-time only. *)
let live t =
  let n = ref 0 in
  for i = 0 to t.pairs - 1 do
    if
      not
        (Store.is_empty t.data (Store.read_base i)
        && Store.is_empty t.data (Store.write_base i))
    then incr n
  done;
  !n

let word_footprint t = Store.words t.data

let extra_stats t = [ ("capacity", t.pairs); ("live", live t) ]
