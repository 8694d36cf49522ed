(* Happens-before race detection: FastTrack (Flanagan & Freund, PLDI 2009)
   over MIL's explicit synchronisation.

   Every thread, lock and barrier has a vector clock; an access is stamped
   with its thread's epoch, clock@thread, packed into one int. Per address
   the detector keeps the last write's epoch and the reads since, as one
   epoch while they are ordered and as a read vector once two are
   concurrent. Two conflicting accesses that happens-before does not order
   are a race of the executed trace, however its threads were interleaved,
   so one unscrambled run is enough.

   Clocks are sparse: a thread's holds an entry only for the threads in its
   past, its own component apart. Slot reuse cannot bound them: in a
   fork-join recursion every thread forks before it joins anything, so no
   forking thread has seen a slot's old thread end. Sparse, a fork copies
   the parent's ancestors and a join merges a subtree, so fib@15's 1,972
   threads cost O(n log n) entries in all, not 1,972 per thread. *)

module Event = Trace.Event

let tid_bits = 24
let tid_mask = (1 lsl tid_bits) - 1

(* Per address, [width] ints at [addr * width]: the last write's epoch and
   line, then the reads': an epoch and its line, or [-(v + 1)] for read
   vector [v]. Epoch 0 is "none", ordered before everything. *)
let width = 4
let f_wline = 1
let f_read = 2
let f_rline = 3

(* A vector clock: one int per thread with a non-zero entry, [(tid lsl
   clock_bits) lor clock], ascending, so in thread order; absent threads are
   at 0. Never mutated once built. Thread ids stay below [tid_mask], which
   a merge uses as its end sentinel. *)
type vc = int array

let clock_bits = 62 - tid_bits
let clock_mask = (1 lsl clock_bits) - 1
let empty : vc = [||]
let entry tid c = (tid lsl clock_bits) lor c

let get (vc : vc) tid =
  let lo = ref 0 and hi = ref (Array.length vc) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get vc mid lsr clock_bits < tid then lo := mid + 1
    else hi := mid
  done;
  if !lo < Array.length vc && Array.unsafe_get vc !lo lsr clock_bits = tid then
    Array.unsafe_get vc !lo land clock_mask
  else 0

(* [a] joined with [b]: [a] itself when [b] adds nothing. A first pass
   counts [b]'s threads that [a] lacks and sees whether [b] adds anything;
   the second merges. Of two entries for one thread the larger int holds
   the larger clock. *)
let join (a : vc) (b : vc) =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and fresh = ref 0 and adds = ref false in
  for j = 0 to nb - 1 do
    let e = Array.unsafe_get b j in
    let u = e lsr clock_bits in
    while !i < na && Array.unsafe_get a !i lsr clock_bits < u do incr i done;
    if !i < na && Array.unsafe_get a !i lsr clock_bits = u then begin
      if e > Array.unsafe_get a !i then adds := true
    end
    else begin
      adds := true;
      incr fresh
    end
  done;
  if not !adds then a
  else begin
    let m = na + !fresh in
    let c = Array.make m 0 and i = ref 0 and j = ref 0 in
    for k = 0 to m - 1 do
      let x = if !i < na then Array.unsafe_get a !i else max_int
      and y = if !j < nb then Array.unsafe_get b !j else max_int in
      let tx = x lsr clock_bits and ty = y lsr clock_bits in
      if tx <= ty then incr i;
      if ty <= tx then incr j;
      Array.unsafe_set c k
        (if tx < ty then x else if ty < tx then y else if x >= y then x else y)
    done;
    c
  end

type t = {
  (* Per thread id: its clock of the other threads, and its own. *)
  mutable past : vc array;
  mutable own : int array;
  mutable entries : int;       (* clock entries of the threads not joined *)
  mutable peak_entries : int;
  locks : (int, vc) Hashtbl.t;
  barriers : (int, vc) Hashtbl.t;
  mutable shadow : int array;
  (* Read vectors: thread, clock and line per concurrent reader, with
     recycled indices. *)
  mutable rv : int array array;
  mutable rv_n : int array;
  mutable rv_free : int list;
  mutable rv_next : int;
  (* The last access's thread, its clock of the others and its epoch. *)
  mutable cur_tid : int;
  mutable cur_vc : vc;
  mutable cur_epoch : int;
  seen : (int * int * int * int, unit) Hashtbl.t;
  mutable races : (string * int * int) list;
  mutable raw : int;
}

let create () =
  let own = Array.make 16 0 in
  (* The main thread, 0, starts at clock 1. *)
  own.(0) <- 1;
  { past = Array.make 16 empty;
    own;
    entries = 0;
    peak_entries = 0;
    locks = Hashtbl.create 8;
    barriers = Hashtbl.create 4;
    shadow = Array.make (4096 * width) 0;
    rv = Array.make 16 [||];
    rv_n = Array.make 16 0;
    rv_free = [];
    rv_next = 0;
    cur_tid = -1;
    cur_vc = empty;
    cur_epoch = 0;
    seen = Hashtbl.create 16;
    races = [];
    raw = 0 }

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Thread [u]'s epoch [e] is ordered before the current thread's next
   access: its own, or covered by the current thread's clock. *)
let[@inline] ordered t e =
  let u = e land tid_mask in
  u = t.cur_tid || e lsr tid_bits <= get t.cur_vc u

(* ---- threads ---- *)

let check_tid t tid =
  if tid < 0 || tid >= tid_mask then
    invalid_arg (Printf.sprintf "Happens_before: thread id %d" tid);
  if tid >= Array.length t.own then begin
    t.past <- grow t.past (tid + 1) empty;
    t.own <- grow t.own (tid + 1) 0
  end

let set_past t tid vc =
  t.entries <- t.entries - Array.length t.past.(tid) + Array.length vc;
  if t.entries > t.peak_entries then t.peak_entries <- t.entries;
  t.past.(tid) <- vc

(* Thread [tid]'s whole clock, its own component included. *)
let clock t tid = join t.past.(tid) [| entry tid t.own.(tid) |]

let fork t ~parent ~child =
  check_tid t child;
  set_past t child (clock t parent);
  t.own.(child) <- 1;
  t.own.(parent) <- t.own.(parent) + 1

let join_thread t ~parent ~child =
  set_past t parent (join t.past.(parent) (clock t child));
  set_past t child empty;
  t.own.(parent) <- t.own.(parent) + 1

let sync_clock tbl id =
  match Hashtbl.find_opt tbl id with Some vc -> vc | None -> empty

(* Release and arrival join into the object's clock, so an atomic update
   that a yield interleaved with another keeps both threads' edges. *)
let feed_sync t (op : Event.sync) ~thread ~obj =
  t.cur_tid <- -1;
  match op with
  | Event.Fork -> fork t ~parent:thread ~child:obj
  | Event.Join -> join_thread t ~parent:thread ~child:obj
  | Event.Acquire ->
      set_past t thread (join t.past.(thread) (sync_clock t.locks obj))
  | Event.Release ->
      Hashtbl.replace t.locks obj
        (join (sync_clock t.locks obj) (clock t thread));
      t.own.(thread) <- t.own.(thread) + 1
  | Event.Arrive ->
      Hashtbl.replace t.barriers obj
        (join (sync_clock t.barriers obj) (clock t thread))
  | Event.Depart ->
      set_past t thread (join t.past.(thread) (sync_clock t.barriers obj));
      t.own.(thread) <- t.own.(thread) + 1

(* ---- races ---- *)

let kind_raw = 0
let kind_war = 1
let kind_waw = 2

(* Out of line: it runs only on a race. *)
let note t kind ~var ~src ~line =
  let key = (kind, var, src, line) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    if kind = kind_raw then t.raw <- t.raw + 1;
    let name = Trace.Intern.Sym.name var in
    t.races <- (name, src, line) :: t.races;
    if Obs.Trace.is_enabled () then Obs.Trace.instant ("race:" ^ name)
  end

(* ---- shadow ---- *)

let cover t addr =
  if addr < 0 then invalid_arg "Happens_before: negative address";
  let n = ref (Array.length t.shadow) in
  while (addr + 1) * width > !n do n := 2 * !n done;
  t.shadow <- grow t.shadow !n 0

let new_rvec t =
  match t.rv_free with
  | v :: rest ->
      t.rv_free <- rest;
      v
  | [] ->
      let v = t.rv_next in
      t.rv_next <- v + 1;
      if v >= Array.length t.rv then begin
        t.rv <- grow t.rv (v + 1) [||];
        t.rv_n <- grow t.rv_n (v + 1) 0
      end;
      t.rv.(v) <- Array.make 12 0;
      v

(* Note a read by thread [u] at clock [c] and [line] in read vector [v],
   three ints per reader. *)
let rv_set t v u c line =
  let a = t.rv.(v) and n = t.rv_n.(v) in
  let i = ref 0 in
  while !i < n && a.(3 * !i) <> u do incr i done;
  let a =
    if !i < n || 3 * (n + 1) <= Array.length a then a
    else begin
      let b = grow a (3 * (n + 1)) 0 in
      t.rv.(v) <- b;
      b
    end
  in
  if !i = n then t.rv_n.(v) <- n + 1;
  a.(3 * !i) <- u;
  a.((3 * !i) + 1) <- c;
  a.((3 * !i) + 2) <- line

let free_rvec t v =
  t.rv_n.(v) <- 0;
  t.rv_free <- v :: t.rv_free

(* Two reads, [r] at [rline] and the current thread's, concurrent: a read
   vector with both. *)
let inflate t b r rline ~line =
  let v = new_rvec t in
  rv_set t v (r land tid_mask) (r lsr tid_bits) rline;
  rv_set t v t.cur_tid (t.cur_epoch lsr tid_bits) line;
  t.shadow.(b + f_read) <- -(v + 1)

(* Every read of vector [v] the current thread's clock does not cover
   races with its write at [line]. *)
let check_rvec t v ~var ~line =
  let a = t.rv.(v) in
  for i = 0 to t.rv_n.(v) - 1 do
    if not (ordered t ((a.((3 * i) + 1) lsl tid_bits) lor a.(3 * i))) then
      note t kind_war ~var ~src:a.((3 * i) + 2) ~line
  done

let refresh t thread =
  if thread < 0 || thread >= Array.length t.own || t.own.(thread) = 0 then
    invalid_arg (Printf.sprintf "Happens_before: unknown thread %d" thread);
  t.cur_tid <- thread;
  t.cur_vc <- t.past.(thread);
  t.cur_epoch <- (t.own.(thread) lsl tid_bits) lor thread

let feed_fields t ~kind ~addr ~var ~line ~thread ~time:_ ~op:_ ~lstack:_
    ~locked:_ =
  if thread <> t.cur_tid then refresh t thread;
  if addr < 0 || (addr + 1) * width > Array.length t.shadow then cover t addr;
  let sh = t.shadow and e = t.cur_epoch in
  let b = addr * width in
  let w = Array.unsafe_get sh b and r = Array.unsafe_get sh (b + f_read) in
  match kind with
  | Event.Read ->
      if r <> e then begin
        if not (ordered t w) then
          note t kind_raw ~var ~src:(Array.unsafe_get sh (b + f_wline)) ~line;
        if r >= 0 then begin
          if ordered t r then begin
            Array.unsafe_set sh (b + f_read) e;
            Array.unsafe_set sh (b + f_rline) line
          end
          else inflate t b r (Array.unsafe_get sh (b + f_rline)) ~line
        end
        else rv_set t (-r - 1) t.cur_tid (e lsr tid_bits) line
      end
  | Event.Write ->
      if w <> e then begin
        if not (ordered t w) then
          note t kind_waw ~var ~src:(Array.unsafe_get sh (b + f_wline)) ~line;
        if r >= 0 then begin
          if not (ordered t r) then
            note t kind_war ~var ~src:(Array.unsafe_get sh (b + f_rline)) ~line
        end
        else begin
          let v = -r - 1 in
          check_rvec t v ~var ~line;
          free_rvec t v;
          Array.unsafe_set sh (b + f_read) 0
        end;
        Array.unsafe_set sh b e;
        Array.unsafe_set sh (b + f_wline) line
      end

(* A dead address forgets its accesses: its next owner's are unrelated. *)
let feed_dealloc t addrs =
  List.iter
    (fun (base, len, _var) ->
      for addr = base to min (base + len) (Array.length t.shadow / width) - 1 do
        let b = addr * width in
        let r = t.shadow.(b + f_read) in
        if r < 0 then free_rvec t (-r - 1);
        Array.fill t.shadow b width 0
      done)
    addrs

let races t = List.sort_uniq compare t.races
let racy_raw t = t.raw
let peak_entries t = t.peak_entries

let run ?seed ?preempt ?on_print prog =
  let t = create () in
  let r =
    Mil.Interp.run ?seed ?preempt
      ~emit:(function
        | Event.Dealloc { addrs } -> feed_dealloc t addrs | _ -> ())
      ~on_access:(feed_fields t) ~on_sync:(feed_sync t) ?on_print prog
  in
  (t, r)
