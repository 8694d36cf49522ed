(* Fixed-size chunks, the unit of transfer between the producer (the
   executing program) and the profiler's worker threads (§2.3.3). Chunk size
   is configurable in the interest of scalability. In the parallel profiler
   the chunks are the slots of one ring per worker (Profiler.Spsc_queue):
   filled in place, read in place and refilled when the ring comes round,
   so none is allocated after the ring's first lap.

   Entries are packed into one flat int array, [stride] ints each: a kind
   code, then the access fields. An int array holds no pointers, so filling
   a chunk needs no write barrier and a refilled one retains nothing. *)

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

let data c = c.data
let set_length c n = c.used <- n

let capacity c = Array.length c.data / stride
let length c = c.used
let is_full c = c.used * stride = Array.length c.data
let is_empty c = c.used = 0

let push_access c ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
  let d = c.data and b = c.used * stride in
  d.(b) <-
    (match kind with Event.Read -> 0 | Event.Write -> write_code)
    + if locked then locked_code else 0;
  d.(b + 1) <- addr;
  d.(b + 2) <- var;
  d.(b + 3) <- line;
  d.(b + 4) <- thread;
  d.(b + 5) <- time;
  d.(b + 6) <- op;
  d.(b + 7) <- lstack;
  c.used <- c.used + 1

let push_remove c addr =
  let b = c.used * stride in
  c.data.(b) <- remove_code;
  c.data.(b + 1) <- addr;
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
