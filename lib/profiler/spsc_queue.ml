(* Lock-free single-producer-single-consumer bounded queue (§2.3.3).

   The producer (the executing program's main thread) owns [tail], the
   consumer (one profiler worker) owns [head]. As long as tail <> head, the
   two sides touch disjoint slots, so an atomic store with release semantics
   on the index — OCaml's [Atomic.set] — is the only synchronisation needed;
   no slot is ever locked.

   A side that must wait (the consumer on an empty queue, the producer on a
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

type waits = { waits : int; wait_ns : int; parks : int }

(* One side's wait ledger, written only by that side and only on its wait
   path, so the common push/pop path touches none of it. *)
type side = {
  mutable s_waits : int;
  mutable s_wait_ns : int;
  mutable s_parks : int;
}

type 'a t = {
  slots : 'a option array;
  mask : int;                (* capacity - 1; capacity is a power of two *)
  head : int Atomic.t;       (* next index to pop  (consumer-owned) *)
  tail : int Atomic.t;       (* next index to push (producer-owned) *)
  lock : Mutex.t;            (* guards only parking and waking *)
  nonempty : Condition.t;    (* the consumer parks on it *)
  nonfull : Condition.t;     (* the producer parks on it *)
  consumer_parked : bool Atomic.t;
  producer_parked : bool Atomic.t;
  prod : side;
  cons : side;
}

let new_side () = { s_waits = 0; s_wait_ns = 0; s_parks = 0 }

let create ~capacity =
  let cap = max 2 capacity in
  (* round up to a power of two *)
  let rec pow2 n = if n >= cap then n else pow2 (2 * n) in
  let cap = pow2 2 in
  { slots = Array.make cap None;
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    consumer_parked = Atomic.make false;
    producer_parked = Atomic.make false;
    prod = new_side ();
    cons = new_side () }

let length t = Atomic.get t.tail - Atomic.get t.head
let is_empty t = length t = 0

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

let has_room t = Atomic.get t.tail - Atomic.get t.head <= t.mask
let has_item t = Atomic.get t.head <> Atomic.get t.tail

(* Producer side. Returns false when the queue is full. *)
let try_push t x =
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head > t.mask then false
  else begin
    t.slots.(tail land t.mask) <- Some x;
    (* Release: the consumer's acquire-load of [tail] sees the slot write. *)
    Atomic.set t.tail (tail + 1);
    wake t t.consumer_parked t.nonempty;
    true
  end

let push t x =
  if not (try_push t x) then begin
    wait t t.prod ~ready:has_room ~flag:t.producer_parked ~cond:t.nonfull;
    (* Only this producer fills the room the wait saw. *)
    let pushed = try_push t x in
    assert pushed
  end

(* Consumer side. *)
let try_pop t =
  let head = Atomic.get t.head in
  if head = Atomic.get t.tail then None
  else begin
    let i = head land t.mask in
    let x = t.slots.(i) in
    t.slots.(i) <- None;
    Atomic.set t.head (head + 1);
    wake t t.producer_parked t.nonfull;
    x
  end

let rec pop t =
  match try_pop t with
  | Some x -> x
  | None ->
      wait t t.cons ~ready:has_item ~flag:t.consumer_parked ~cond:t.nonempty;
      pop t

let waits_of s = { waits = s.s_waits; wait_ns = s.s_wait_ns; parks = s.s_parks }
let producer_waits t = waits_of t.prod
let consumer_waits t = waits_of t.cons
