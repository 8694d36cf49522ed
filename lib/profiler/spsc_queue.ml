(* Single-producer-single-consumer ring of chunk buffers (§2.3.3).

   The producer (the executing program's main thread) owns [tail], the
   consumer (one profiler worker) owns [head]. The slots from head to
   tail - 1 are published and belong to the consumer, which reads the head
   slot in place and advances [head] when done; every other slot belongs to
   the producer, which fills the tail slot in place and advances [tail] to
   publish it. So the buffers are never copied, never locked and never
   handed back: a drained slot is simply refilled when the tail comes round.
   In the lock-free ring an atomic store with release semantics on the index
   — OCaml's [Atomic.set] — is the only synchronisation needed.

   A slot holds [none] until its first fill, so a short run allocates only
   the buffers it ships. The stop signal is a published empty slot (the
   producer publishes no other empty slot); it needs no buffer.

   Fig. 2.9's lock-based baseline is this ring with [index_lock]: every read
   and update of an index then takes that one mutex.

   A side that must wait (the consumer on an empty ring, the producer on a
   full one) spins for about the time one chunk takes to fill, then parks on
   a condition variable. Spinning alone is not enough: while both domains
   share one CPU (a fresh process's first second or two, or a loaded host),
   a spinning consumer burns the time slice the producer needs, and a run
   took 3-4x the serial profiler's time. A side that keeps up never parks.

   No wake-up is lost (Dekker order on sequentially consistent atomics):
   the waiter sets its [parked] flag, then re-checks the index under the
   mutex before each wait; the other side moves the index, then reads the
   flag and, if set, signals under the same mutex. Either the waiter sees
   the new index or the mover sees the flag, and since the waiter holds the
   mutex from setting the flag until [Condition.wait] releases it, the
   signal cannot fall between its check and its wait. *)

module Chunk = Trace.Chunk

type waits = { waits : int; wait_ns : int; parks : int }

(* One side's wait ledger, written only by that side and only on its wait
   path, so the common path touches none of it. *)
type side = {
  mutable s_waits : int;
  mutable s_wait_ns : int;
  mutable s_parks : int;
}

type t = {
  slots : Chunk.t array;     (* [none] until the slot's first fill *)
  mask : int;                (* capacity - 1; capacity is a power of two *)
  head : int Atomic.t;       (* next slot to read (consumer-owned) *)
  tail : int Atomic.t;       (* next slot to fill (producer-owned) *)
  index_lock : Mutex.t option;  (* the lock-based baseline's one mutex *)
  lock : Mutex.t;            (* guards only parking and waking *)
  nonempty : Condition.t;    (* the consumer parks on it *)
  nonfull : Condition.t;     (* the producer parks on it *)
  consumer_parked : bool Atomic.t;
  producer_parked : bool Atomic.t;
  prod : side;
  cons : side;
  mutable buffers : int;     (* producer-owned *)
}

(* Shared by every ring and never written: an empty slot with no buffer. *)
let none = Chunk.create ~capacity:0 ()

let new_side () = { s_waits = 0; s_wait_ns = 0; s_parks = 0 }

let create ~locked ~capacity =
  let cap = max 2 capacity in
  (* round up to a power of two *)
  let rec pow2 n = if n >= cap then n else pow2 (2 * n) in
  let cap = pow2 2 in
  { slots = Array.make cap none;
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    index_lock = (if locked then Some (Mutex.create ()) else None);
    lock = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    consumer_parked = Atomic.make false;
    producer_parked = Atomic.make false;
    prod = new_side ();
    cons = new_side ();
    buffers = 0 }

let get t i =
  match t.index_lock with
  | None -> Atomic.get i
  | Some m -> Mutex.protect m (fun () -> Atomic.get i)

let set t i v =
  match t.index_lock with
  | None -> Atomic.set i v
  | Some m -> Mutex.protect m (fun () -> Atomic.set i v)

let length t = get t t.tail - get t t.head
let has_room t = length t <= t.mask
let has_item t = length t > 0
let buffers t = t.buffers

(* How long a waiting side spins before it parks: about the time the
   producer takes to fill one chunk of accesses (512 at some 30-40 ns each,
   interpreter and PET feed included). *)
let spin_ns = 20_000

let wake t flag cond =
  if Atomic.get flag then begin
    Mutex.lock t.lock;
    Condition.signal cond;
    Mutex.unlock t.lock
  end

(* Wait until [ready t] holds: spin with backoff for [spin_ns], then park.
   The clock is read only here, on the wait path. *)
let wait t side ~ready ~flag ~cond =
  let t0 = Obs.now_ns () in
  side.s_waits <- side.s_waits + 1;
  let rec spin backoff =
    if not (ready t) then
      if Obs.now_ns () - t0 < spin_ns then begin
        for _ = 1 to backoff do
          Domain.cpu_relax ()
        done;
        spin (min (2 * backoff) 64)
      end
      else begin
        Mutex.lock t.lock;
        Atomic.set flag true;
        if not (ready t) then begin
          side.s_parks <- side.s_parks + 1;
          while not (ready t) do
            Condition.wait cond t.lock
          done
        end;
        Atomic.set flag false;
        Mutex.unlock t.lock
      end
  in
  spin 1;
  side.s_wait_ns <- side.s_wait_ns + (Obs.now_ns () - t0)

(* Producer side. *)
let tail_slot t =
  if not (has_room t) then
    wait t t.prod ~ready:has_room ~flag:t.producer_parked ~cond:t.nonfull;
  get t t.tail land t.mask

let slot t =
  let i = tail_slot t in
  let c = t.slots.(i) in
  if c != none then begin
    Chunk.clear c;
    c
  end
  else begin
    let c = Chunk.create () in
    t.slots.(i) <- c;
    t.buffers <- t.buffers + 1;
    c
  end

let push t =
  (* Release: the consumer's acquire-load of [tail] sees the slot's fill. *)
  set t t.tail (get t t.tail + 1);
  wake t t.consumer_parked t.nonempty

let close t =
  let c = t.slots.(tail_slot t) in
  if c != none then Chunk.clear c;
  push t

(* Consumer side. *)
let next t =
  if not (has_item t) then
    wait t t.cons ~ready:has_item ~flag:t.consumer_parked ~cond:t.nonempty;
  t.slots.(get t t.head land t.mask)

let release t =
  set t t.head (get t t.head + 1);
  wake t t.producer_parked t.nonfull

let waits_of s = { waits = s.s_waits; wait_ns = s.s_wait_ns; parks = s.s_parks }
let producer_waits t = waits_of t.prod
let consumer_waits t = waits_of t.cons
