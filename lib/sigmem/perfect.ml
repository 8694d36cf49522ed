(* The "perfect signature" (§2.5.1): an exact shadow memory in which every
   address has its own entry, so hash collisions — and hence false positives
   and false negatives — cannot occur. Used as the ground-truth baseline for
   measuring the signature's FPR/FNR, and offered to users who need 100%
   accurate dependences (§2.3.7) at a time/memory premium.

   Implementation: an open-addressed, linear-probing table of int keys over
   a flat off-heap {!Store} of (read, write) slot pairs — the i-th key owns
   the i-th pair. One probe sequence per access resolves both slots (the
   boxed-Hashtbl predecessor paid two lookups plus a per-entry record);
   inserting never allocates on the OCaml minor heap (keys live in a plain
   int array, pairs in the Bigarray store). Removals (variable-lifetime
   analysis) leave tombstones that are recycled by later inserts and
   squeezed out on growth.

   Like every backend this is a resolver: {!resolve} maps an address to its
   pair's base in [data], and the caller reads and writes the slots there in
   place. *)

(* Interpreter addresses are small non-negative ints; the sentinels cannot
   collide with any real address. *)
let empty_key = min_int
let tomb_key = min_int + 1

type t = {
  mutable keys : int array;     (* unboxed ints: no write barrier *)
  mutable data : Store.t;
  mutable mask : int;           (* capacity - 1; capacity a power of two *)
  mutable live : int;           (* entries holding a real key *)
  mutable tombs : int;
}

let initial_capacity = 1024

(* Same splitmix-style mixing as the signature, masked instead of mod. *)
let[@inline] mix addr =
  let h = addr in
  let h = (h lxor (h lsr 30)) * 0x1F85EBCA6B land max_int in
  let h = (h lxor (h lsr 27)) * 0x2545F4914F6CDD1D land max_int in
  h lxor (h lsr 31)

let create () =
  { keys = Array.make initial_capacity empty_key;
    data = Store.create initial_capacity;
    mask = initial_capacity - 1;
    live = 0;
    tombs = 0 }

(* The probe loops take all state as arguments: as closures over [t] they
   would be allocated on every call, and [find] runs once per access. *)

(* Slot of [addr], or -1. Terminates because the load factor cap keeps at
   least a quarter of the table [empty_key]. *)
let rec find_from keys addr mask i =
  let k = Array.unsafe_get keys i in
  if k = addr then i
  else if k = empty_key then -1
  else find_from keys addr mask ((i + 1) land mask)

let find t addr = find_from t.keys addr t.mask (mix addr land t.mask)

(* First reusable slot (tombstone or empty) on [addr]'s probe path; the
   caller has established that [addr] is absent. *)
let rec insert_from keys mask i =
  let k = Array.unsafe_get keys i in
  if k = empty_key || k = tomb_key then i else insert_from keys mask ((i + 1) land mask)

let insert_pos t addr = insert_from t.keys t.mask (mix addr land t.mask)

(* Double (or, when tombstones dominate, just rebuild) and reinsert the live
   entries, moving their slot pairs. *)
let grow t =
  let old_keys = t.keys and old_data = t.data in
  let cap = t.mask + 1 in
  let cap' = if t.live * 2 > cap then 2 * cap else cap in
  let keys = Array.make cap' empty_key in
  let data = Store.create cap' in
  let mask' = cap' - 1 in
  Array.iteri
    (fun i k ->
      if k <> empty_key && k <> tomb_key then begin
        let rec free j =
          if keys.(j) = empty_key then j else free ((j + 1) land mask')
        in
        let j = free (mix k land mask') in
        keys.(j) <- k;
        Store.blit_pair old_data i data j
      end)
    old_keys;
  t.keys <- keys;
  t.data <- data;
  t.mask <- mask';
  t.tombs <- 0

(* Insert absent [addr] and return its slot. Grows first to keep load
   ≤ 3/4 including tombstones, so probes stay short and always end on an
   [empty_key]. *)
let insert t addr =
  if (t.live + t.tombs + 1) * 4 > (t.mask + 1) * 3 then grow t;
  let i = insert_pos t addr in
  if Array.unsafe_get t.keys i = tomb_key then t.tombs <- t.tombs - 1;
  t.keys.(i) <- addr;
  t.live <- t.live + 1;
  i

(* [find]'s probe loop, written out: this runs once per access. *)
let resolve t addr =
  let keys = t.keys and mask = t.mask in
  let i = ref (mix addr land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> addr && !k <> empty_key do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  (if !k = addr then !i else insert t addr) * Store.pair_width

let remove t ~addr =
  let i = find t addr in
  if i >= 0 then begin
    t.keys.(i) <- tomb_key;
    t.live <- t.live - 1;
    t.tombs <- t.tombs + 1;
    Store.clear_pair t.data i
  end

let slots_used t = Store.occupied t.data

let capacity t = t.mask + 1
let live t = t.live

(* Keys array + slot store. *)
let word_footprint t = (t.mask + 1) + Store.words t.data

let extra_stats t =
  [ ("capacity", t.mask + 1); ("live", t.live); ("tombstones", t.tombs) ]
