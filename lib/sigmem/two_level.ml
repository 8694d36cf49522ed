(* Two-level paged exact shadow memory.

   The classic alternative to both the signature and a flat hash table
   (§2.3.2): the address space is split into fixed-size pages allocated on
   first touch, so lookups are two array indexings and memory is
   proportional to the touched pages, not to the highest address as in
   {!Perfect}'s direct table — the exact backend for sparse address
   spaces. This is the
   "multilevel tables" design the paper mentions as partially mitigating
   shadow memory's footprint; the micro-benchmarks compare all three.

   Each page is one flat off-heap {!Store} of [page_size] (read, write) slot
   pairs, so a page lookup lands on the address's read and write slots
   adjacently. Like every backend this is a resolver: {!resolve} leaves the
   page it located in [cur] and returns the pair's base there, and the
   caller reads and writes the slots in place. *)

type t = {
  page_bits : int;
  mutable dir : Store.t array;        (* indexed by addr lsr page_bits *)
  mutable cur : Store.t;              (* page located by the last [resolve] *)
  mutable pages_allocated : int;
}

(* Missing-page sentinel (zero pairs); compared physically. *)
let null : Store.t = Store.create 0

let default_page_bits = 12

let create () =
  { page_bits = default_page_bits; dir = Array.make 64 null; cur = null;
    pages_allocated = 0 }

let page_size t = 1 lsl t.page_bits

let grow_dir t idx =
  let cap = max (2 * Array.length t.dir) (idx + 1) in
  let d = Array.make cap null in
  Array.blit t.dir 0 d 0 (Array.length t.dir);
  t.dir <- d

let new_page t idx =
  let p = Store.create (page_size t) in
  t.dir.(idx) <- p;
  t.pages_allocated <- t.pages_allocated + 1;
  p

let resolve t addr =
  (* [lsr] would turn a negative address into a directory index near
     2^51, and growing [dir] to that fails with [Out_of_memory]. *)
  if addr < 0 then invalid_arg "Two_level.resolve: negative address";
  let idx = addr lsr t.page_bits in
  if idx >= Array.length t.dir then grow_dir t idx;
  let p = Array.unsafe_get t.dir idx in
  let p = if p != null then p else new_page t idx in
  (* Runs of accesses stay on one page: skip the write barrier then. *)
  if p != t.cur then t.cur <- p;
  (addr land (page_size t - 1)) * Store.pair_width

let remove t ~addr =
  let idx = addr lsr t.page_bits in
  if idx < Array.length t.dir then begin
    let p = t.dir.(idx) in
    if p != null then Store.clear_pair p (addr land (page_size t - 1))
  end

let pages_allocated t = t.pages_allocated

let slots_used t =
  Array.fold_left
    (fun acc p -> if p == null then acc else acc + Store.occupied p)
    0 t.dir

let word_footprint t =
  Array.fold_left
    (fun acc p -> if p == null then acc + 1 else acc + Store.words p)
    0 t.dir

let extra_stats t = [ ("pages", pages_allocated t) ]
