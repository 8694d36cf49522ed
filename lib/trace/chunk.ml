(* Fixed-size chunks, the unit of transfer between the producer (the
   executing program) and the profiler's worker threads (§2.3.3). Chunk size
   is configurable in the interest of scalability. In the parallel profiler
   the chunks are the slots of one ring per worker (Profiler.Spsc_queue):
   filled in place, read in place and refilled when the ring comes round,
   so none is allocated after the ring's first lap.

   Entries are packed into one flat int array, [stride] ints each: a kind
   code, then the access fields. An int array holds no pointers, so filling
   a chunk needs no write barrier and a refilled one retains nothing. This
   module is the only one that knows the encoding: the writers are
   [[@inline]], so a producer packs an entry in place with no call. *)

type t = {
  mutable used : int;  (* entries *)
  data : int array;
}

let stride = 8

(* Kind codes: a read or a write, plus 2 when the thread held a lock; a slot
   removal carries only its address. *)
let write_code = 1
let locked_code = 2
let remove_code = 4

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  { used = 0; data = Array.make (capacity * stride) 0 }

let clear c = c.used <- 0

let capacity c = Array.length c.data / stride
let length c = c.used
let[@inline] is_full c = c.used * stride = Array.length c.data
let is_empty c = c.used = 0

(* One bounds check per entry: it covers the entry's [stride] ints, so the
   stores that follow need none. *)
let[@inline] entry_base c =
  let b = c.used * stride in
  if b + stride > Array.length c.data then invalid_arg "Chunk: full";
  b

let[@inline] push_access c ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
    ~locked =
  let d = c.data and b = entry_base c in
  Array.unsafe_set d b
    ((match kind with Event.Read -> 0 | Event.Write -> write_code)
    + if locked then locked_code else 0);
  Array.unsafe_set d (b + 1) addr;
  Array.unsafe_set d (b + 2) var;
  Array.unsafe_set d (b + 3) line;
  Array.unsafe_set d (b + 4) thread;
  Array.unsafe_set d (b + 5) time;
  Array.unsafe_set d (b + 6) op;
  Array.unsafe_set d (b + 7) lstack;
  c.used <- c.used + 1

let[@inline] push_remove c addr =
  let d = c.data and b = entry_base c in
  Array.unsafe_set d b remove_code;
  Array.unsafe_set d (b + 1) addr;
  c.used <- c.used + 1

let iter c ~access ~remove =
  let d = c.data in
  for i = 0 to c.used - 1 do
    let b = i * stride in
    let code = d.(b) in
    if code = remove_code then remove d.(b + 1)
    else
      access
        ~kind:(if code land write_code = 0 then Event.Read else Event.Write)
        ~addr:d.(b + 1) ~var:d.(b + 2) ~line:d.(b + 3) ~thread:d.(b + 4)
        ~time:d.(b + 5) ~op:d.(b + 6) ~lstack:d.(b + 7)
        ~locked:(code land locked_code <> 0)
  done
