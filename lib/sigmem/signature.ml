(* Signature-based shadow memory (§2.3.2).

   A signature is a fixed-length slot array indexed by a single hash of the
   memory address. Distinct addresses hashing to the same slot collide: the
   membership check then reports a stale access, creating false-positive
   dependences and masking true ones (false negatives) — the accuracy/space
   trade-off quantified in Table 2.6.

   One hash function (not a k-hash Bloom filter) is used deliberately so that
   variable-lifetime analysis can *remove* elements (§2.3.2). The read and
   write signatures share one flat off-heap store ({!Store}), one (read,
   write) slot pair per hash index, so each access resolves the hash once and
   probes adjacent memory for both slots.

   Like every backend this is a resolver: {!resolve} maps an address to its
   pair's base in [store], and the caller reads and writes the slots there
   in place. A caller that stores an access first calls {!count_store},
   which keeps [counts] up to date: {!Store}-level writes cannot see
   them. *)

type counts = {
  mutable occupied_reads : int;
  mutable occupied_writes : int;
  (* Occupied-slot overwrites where the stored variable differs from the
     incoming one: a cheap proxy for hash collisions (slots do not retain the
     address), i.e. for the false-positive pressure of Table 2.6. *)
  mutable takeovers : int;
}

type t = {
  slots : int;
  mask : int;
      (* [slots - 1] when [slots] is a power of two, else 0: the standard
         64K/4096-slot configurations reduce the hash with one [land]
         instead of an integer division — same indices, no [div] on the hot
         path *)
  store : Store.t;                   (* [slots] (read, write) pairs *)
  counts : counts;
}

(* Splitmix-style bit mixing: dense bump-allocator addresses must land in
   quasi-random slots, otherwise collision statistics (the FPR/FNR behaviour
   of Table 2.6) would not reflect the signature's approximate nature. *)
let[@inline] mix addr =
  let h = addr in
  let h = (h lxor (h lsr 30)) * 0x1F85EBCA6B land max_int in
  let h = (h lxor (h lsr 27)) * 0x2545F4914F6CDD1D land max_int in
  h lxor (h lsr 31)

let hash_addr addr slots = mix addr mod slots

let create ~slots =
  let slots = max slots 1 in
  { slots;
    mask = (if slots land (slots - 1) = 0 then slots - 1 else 0);
    store = Store.create slots;
    counts = { occupied_reads = 0; occupied_writes = 0; takeovers = 0 } }

(* [mix] is non-negative, so masking and [mod] agree on power-of-two slot
   counts: [hash_addr] remains the specification. *)
let resolve t addr =
  let h = mix addr in
  Store.read_base (if t.mask <> 0 then h land t.mask else h mod t.slots)

(* The counter rule for storing an access of variable [var] into the slot at
   [base]. Inlined: the engine applies it on every access. *)
let[@inline] count_store t base ~var =
  let c = t.counts in
  if Store.is_empty t.store base then begin
    if Store.is_write_slot base then c.occupied_writes <- c.occupied_writes + 1
    else c.occupied_reads <- c.occupied_reads + 1
  end
  else if Store.var t.store base <> var then c.takeovers <- c.takeovers + 1

let remove t ~addr =
  let rb = resolve t addr in
  let wb = Store.write_slot rb in
  let c = t.counts in
  if not (Store.is_empty t.store rb) then begin
    Store.clear t.store rb;
    c.occupied_reads <- c.occupied_reads - 1
  end;
  if not (Store.is_empty t.store wb) then begin
    Store.clear t.store wb;
    c.occupied_writes <- c.occupied_writes - 1
  end

let slots_used t = t.counts.occupied_reads + t.counts.occupied_writes

(* Current false-positive risk attribution: the occupied fraction across both
   signatures — the probability that a fresh address's membership probe hits
   a stale colliding slot (the per-witness analogue of Eq. 2.2's predicted
   FPR, which integrates over a whole run). 0 when empty, → 1 as slots
   fill. *)
let collision_risk t =
  float_of_int (slots_used t) /. float_of_int (2 * t.slots)

(* Predicted false-positive probability after inserting [n] distinct
   addresses into [m] slots (Equation 2.2): 1 - (1 - 1/m)^n. *)
let predicted_fpr ~slots ~addresses =
  if slots <= 0 then 1.0
  else 1.0 -. ((1.0 -. (1.0 /. float_of_int slots)) ** float_of_int addresses)

let word_footprint t = Store.words t.store

let extra_stats t =
  [ ("slots", t.slots);
    ("occupied_reads", t.counts.occupied_reads);
    ("occupied_writes", t.counts.occupied_writes);
    ("takeovers", t.counts.takeovers) ]
