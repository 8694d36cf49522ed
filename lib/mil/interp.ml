(* The MIL instrumenting interpreter.

   Executing a MIL program under this interpreter produces the event stream of
   {!Trace.Event}: one access event per dynamic memory instruction plus region
   events. This is the substitute for DiscoPoP's LLVM instrumentation pass and
   runtime library hooks.

   The evaluation itself is {!Compile}'s; this module is its backend: a flat
   growable heap, the access hook that stamps and emits events, and the
   scheduler. Thread-parallel MIL programs ([Par] blocks with
   [Lock]/[Unlock]) run as cooperative fibers over OCaml effects with a
   seeded pseudo-random scheduler, so that interleavings are reproducible yet
   varied. Accesses carry a global timestamp and a [locked] flag, which is
   what the profiler's race detection (§2.3.4) consumes. *)

open Ast
module Event = Trace.Event
module Intern = Trace.Intern
module Rng = Compile.Rng

exception Runtime_error = Compile.Runtime_error
exception Cancelled = Compile.Cancelled

(* ---- effects for cooperative threading ---- *)

type _ Effect.t +=
  | Yield : int -> unit Effect.t
      (* switch to the [k]-th most recently readied fiber, [k > 0] *)
  | Spawn : (unit -> unit) list -> unit Effect.t
  | Acquire : string -> unit Effect.t
  | Release : string -> unit Effect.t
  | Await_barrier : string -> unit Effect.t

(* Thread control block. *)
type tcb = {
  tid : int;
  mutable lstack : int;               (* loop stack (id in [state.lstacks]) *)
  mutable held : int;                 (* number of locks currently held *)
  group : int;                        (* spawn group, for barriers *)
  group_live : int ref;               (* live threads in the group *)
}

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable loop_iterations : int;
  mutable calls : int;
  mutable statements : int;
  mutable switches : int;
  mutable spawns : int;
}

(* A runnable fiber: a suspended continuation or a thread not yet started. *)
type work =
  | Resume : ('a, unit) Effect.Deep.continuation * 'a * tcb -> work
  | Start of (unit -> unit) * tcb

let no_work =
  Start
    (ignore, { tid = -1; lstack = 0; held = 0; group = -1; group_live = ref 0 })

(* ---- the scramble buffer ---- *)

module Scramble = struct
  (* The buffer holds at most [max_pending] accesses of [width] ints each:
     kind (0 read, 1 write), addr, var, line, thread, time, op, lstack.
     Delayed accesses are unlocked by definition. *)
  let max_pending = 5
  let width = 8
  let f_thread = 4

  (* The drain's working state, reused across drains. Thread slots [j <
     nt], in ascending thread id: [tids.(j)] and the index [cur.(j)] of its
     oldest entry not yet emitted; per entry [i], [next.(i)] is the index
     of its thread's next entry, or the entry count when it is the last. *)
  type scratch = { tids : int array; cur : int array; next : int array }

  let scratch () =
    { tids = Array.make max_pending 0; cur = Array.make max_pending 0;
      next = Array.make max_pending 0 }

  (* Emit the [n] buffered accesses of [p] into [sink] in a scrambled
     cross-thread interleaving. A profiling thread pushes its own accesses
     in program order — only the interleaving between threads is
     nondeterministic (§2.3.4) — so per-thread order is preserved and
     timestamp reversals (the race signal) are only ever manufactured
     across threads. Each step draws one of the threads with accesses
     left, in ascending thread id, and emits its oldest. Every step is
     O(1) but for shifting at most [max_pending] slots in place when a
     thread is added or runs out. *)
  let drain sc rng (p : int array) n (sink : Event.access_sink) =
    let tids = sc.tids and cur = sc.cur and next = sc.next in
    let nt = ref 0 in
    (* Newest first, so each entry links to the one its thread's cursor
       held, and the cursors end on the oldest. *)
    for i = n - 1 downto 0 do
      let t = p.((i * width) + f_thread) in
      let j = ref 0 in
      while !j < !nt && tids.(!j) < t do incr j done;
      let j = !j in
      if j < !nt && tids.(j) = t then next.(i) <- cur.(j)
      else begin
        for k = !nt downto j + 1 do
          tids.(k) <- tids.(k - 1);
          cur.(k) <- cur.(k - 1)
        done;
        tids.(j) <- t;
        next.(i) <- n;
        incr nt
      end;
      cur.(j) <- i
    done;
    while !nt > 0 do
      let j = Rng.int rng !nt in
      let i = cur.(j) in
      let b = i * width in
      sink
        ~kind:(if p.(b) = 0 then Event.Read else Event.Write)
        ~addr:p.(b + 1) ~var:p.(b + 2) ~line:p.(b + 3) ~thread:tids.(j)
        ~time:p.(b + 5) ~op:p.(b + 6) ~lstack:p.(b + 7) ~locked:false;
      let i = next.(i) in
      if i < n then cur.(j) <- i
      else begin
        for k = j to !nt - 2 do
          tids.(k) <- tids.(k + 1);
          cur.(k) <- cur.(k + 1)
        done;
        decr nt
      end
    done
end

type state = {
  emit : Event.region -> unit;
  on_access : Event.access_sink;
  on_sync : Event.sync_sink;
  instrument : bool;
  lstacks : Intern.Lstack.t;      (* the run's loop stacks *)
  mutable mem : int array;
  mutable brk : int;
  recycled : Compile.Recycle.t;
  mutable time : int;
  mutable op_ids : int array;     (* packed (line,kind,occ) -> op id *)
  op_cache : int array;           (* direct-mapped (key, id) pairs *)
  mutable n_ops : int;
  mutable occ : int;              (* occurrence counter within a statement *)
  mutable caller_occ : int;       (* [occ] of the statement making a call *)
  rng : Rng.t;
  preempt : bool;                 (* statements are scheduling points *)
  on_print : int list -> unit;
  mutable loop_inst : int;
  mutable cur : tcb;
  mutable live_threads : int;
  mutable next_tid : int;
  (* The ready bag. Fibers sit in [slots]; [order] is a permutation of
     the slot ids whose first [n_ready] are the ready fibers' in enqueue
     order, [order.(n_ready - 1)] the most recently readied, and whose
     rest are the free slots. Taking a fiber shifts ints in [order], not
     pointers, so it costs no write barrier. *)
  mutable slots : work array;
  mutable order : int array;
  mutable n_ready : int;
  stats : stats;
  (* Optional reordering of unlocked pushes, to exercise race detection: the
     access as seen by the profiler may arrive out of timestamp order. *)
  scramble_unlocked : bool;
  pending : int array;    (* delayed unlocked accesses, oldest first *)
  mutable n_pending : int;
  drain : Scramble.scratch;
  (* Cooperative cancellation: polled every 2048 statements so a deadline
     watchdog (batch driver, serve daemon) can stop a run without
     per-statement cost. *)
  cancelled : unit -> bool;
}

(* ---- event emission ---- *)

(* Emit the delayed accesses, emptying the buffer first. *)
let drain_pending st =
  let n = st.n_pending in
  st.n_pending <- 0;
  Scramble.drain st.drain st.rng st.pending n st.on_access

(* Small enough to inline: every unscrambled access passes here. *)
let flush_pending st = if st.n_pending > 0 then drain_pending st

(* Op ids by packed (line, occ, kind) key, in first-seen order: an
   open-addressed table of (key, id) pairs, key -1 marking a free pair,
   kept at most half full. *)
let rec op_probe tbl mask key i =
  let k = tbl.(2 * i) in
  if k = key || k = -1 then i else op_probe tbl mask key ((i + 1) land mask)

let op_index tbl key =
  let mask = (Array.length tbl / 2) - 1 in
  op_probe tbl mask key ((key * 0x9E3779B1) lsr 7 land mask)

let op_add tbl key id =
  let i = op_index tbl key in
  tbl.(2 * i) <- key;
  tbl.((2 * i) + 1) <- id

(* The table's answer for [key], which first-seen numbering makes the
   source of ids, remembered at [op_cache] pair [c]. *)
let intern_op_table st key c =
  let i = op_index st.op_ids key in
  let id =
    if st.op_ids.(2 * i) = key then st.op_ids.((2 * i) + 1)
    else begin
      let id = st.n_ops in
      st.n_ops <- id + 1;
      op_add st.op_ids key id;
      if 4 * st.n_ops > Array.length st.op_ids then begin
        let old = st.op_ids in
        st.op_ids <- Array.make (2 * Array.length old) (-1);
        for j = 0 to (Array.length old / 2) - 1 do
          if old.(2 * j) <> -1 then op_add st.op_ids old.(2 * j) old.((2 * j) + 1)
        done
      end;
      id
    end
  in
  st.op_cache.(c) <- key;
  st.op_cache.(c + 1) <- id;
  id

(* In front of the table, a direct-mapped cache of [op_cache_size] (key,
   id) pairs indexed by line, occurrence and kind, so the ops of up to
   [op_cache_size / 16] adjacent lines with fewer than 8 accesses each map
   to distinct pairs: a hot loop's accesses hit it without a probe. *)
let op_cache_size = 2048

let intern_op st line kind =
  let k = match kind with Event.Read -> 0 | Event.Write -> 1 in
  let occ = st.occ in
  st.occ <- occ + 1;
  let key = (((line * 64) + occ) * 2) + k in
  let c = 2 * (((line lsl 4) + (occ lsl 1) + k) land (op_cache_size - 1)) in
  (* [c] is masked below [2 * op_cache_size], the cache's length whenever
     accesses are instrumented. *)
  if Array.unsafe_get st.op_cache c = key then
    Array.unsafe_get st.op_cache (c + 1)
  else intern_op_table st key c

let emit_access st kind addr var line =
  st.time <- st.time + 1;
  let op = intern_op st line kind in
  let locked = st.cur.held > 0 in
  if st.scramble_unlocked && st.live_threads > 1 && not locked then begin
    let p = st.pending and b = st.n_pending * Scramble.width in
    p.(b) <- (match kind with Event.Read -> 0 | Event.Write -> 1);
    p.(b + 1) <- addr;
    p.(b + 2) <- var;
    p.(b + 3) <- line;
    p.(b + Scramble.f_thread) <- st.cur.tid;
    p.(b + 5) <- st.time;
    p.(b + 6) <- op;
    p.(b + 7) <- st.cur.lstack;
    st.n_pending <- st.n_pending + 1;
    if st.n_pending = Scramble.max_pending then flush_pending st
  end
  else begin
    flush_pending st;
    st.on_access ~kind ~addr ~var ~line ~thread:st.cur.tid ~time:st.time ~op
      ~lstack:st.cur.lstack ~locked
  end

let emit_region st r =
  (* A deallocation ends the addresses' lifetime: delayed accesses still
     pending from before it must not be emitted after it, or the engine's
     lifetime analysis would attribute them to the slot's next owner and
     manufacture cross-thread dependences on reused stack slots. *)
  (match r with
  | Event.Dealloc _ -> flush_pending st
  | _ -> ());
  st.emit r

(* ---- the backend ---- *)

module Backend = struct
  type ctx = state

  type loop = {
    l_line : int;
    inst : int;
    outer : int;               (* loop stack outside the loop *)
    mutable last_iter : int;   (* the latest iteration pushed, and its id *)
    mutable last_id : int;
  }

  let read st addr sym line =
    st.stats.reads <- st.stats.reads + 1;
    if st.instrument then emit_access st Event.Read addr sym line;
    st.mem.(addr)

  let write st addr sym line v =
    st.mem.(addr) <- v;
    st.stats.writes <- st.stats.writes + 1;
    if st.instrument then emit_access st Event.Write addr sym line

  let peek st addr = st.mem.(addr)
  let poke st addr v = st.mem.(addr) <- v

  let recycled st = st.recycled

  let fresh st n =
    if st.brk + n > Array.length st.mem then begin
      let m = Array.make (max (2 * Array.length st.mem) (st.brk + n)) 0 in
      Array.blit st.mem 0 m 0 st.brk;
      st.mem <- m
    end;
    let a = st.brk in
    st.brk <- st.brk + n;
    a

  let dealloc st addrs = emit_region st (Event.Dealloc { addrs })

  (* A scheduling point when preempting: the running fiber is drawn against
     the ready bag, as if readied first, and only a switch to another fiber
     suspends it. *)
  let stmt st =
    if st.live_threads > 1 && st.preempt then begin
      let k = Rng.int st.rng (st.n_ready + 1) in
      if k > 0 then Effect.perform (Yield k)
    end;
    let s = st.stats in
    s.statements <- s.statements + 1;
    if s.statements land 2047 = 0 && st.cancelled () then raise Cancelled;
    st.occ <- 0

  (* The parameter writes are attributed to the header line, counting
     occurrences from 0; the caller's statement then resumes its count. *)
  let enter st fn call_line =
    st.stats.calls <- st.stats.calls + 1;
    if st.instrument then
      emit_region st (Event.Func_entry { name = fn.fname; line = fn.fline; call_line });
    st.caller_occ <- st.occ;
    st.occ <- 0

  let entered st = st.occ <- st.caller_occ

  let leave st fn =
    if st.instrument then
      emit_region st (Event.Func_exit { name = fn.fname; line = fn.fline })

  let loop_enter st line =
    st.loop_inst <- st.loop_inst + 1;
    let inst = st.loop_inst in
    if st.instrument then emit_region st (Event.Loop_entry { line; inst });
    { l_line = line; inst; outer = st.cur.lstack; last_iter = -1; last_id = 0 }

  let loop_head st lp n =
    if st.instrument then begin
      if lp.last_iter <> n then begin
        lp.last_id <-
          Intern.Lstack.push st.lstacks ~parent:lp.outer ~loop_line:lp.l_line
            ~inst:lp.inst ~iter:n;
        lp.last_iter <- n
      end;
      st.cur.lstack <- lp.last_id
    end;
    st.occ <- 0

  let loop_body st lp n =
    if st.instrument then
      emit_region st (Event.Loop_iter { line = lp.l_line; inst = lp.inst; iter = n });
    st.stats.loop_iterations <- st.stats.loop_iterations + 1

  let loop_exit st lp n =
    st.cur.lstack <- lp.outer;
    if st.instrument then
      emit_region st
        (Event.Loop_exit { line = lp.l_line; inst = lp.inst; iterations = n })

  let rand st bound = Rng.draw st.rng bound
  let print st vs = st.on_print vs

  let lock st m =
    if st.live_threads > 1 then Effect.perform (Acquire m);
    st.cur.held <- st.cur.held + 1

  let unlock st m =
    if st.live_threads <= 1 && st.cur.held > 0 then st.cur.held <- st.cur.held - 1
    else begin
      st.cur.held <- max 0 (st.cur.held - 1);
      Effect.perform (Release m)
    end

  let barrier st m = if st.live_threads > 1 then Effect.perform (Await_barrier m)

  (* Atomicity: the update counts as lock-protected for race reporting,
     and to the sync hook it holds the target variable's own lock. *)
  let atomic st f rhs target sym line =
    let tid = st.cur.tid and sync = st.live_threads > 1 in
    if sync then st.on_sync Event.Acquire ~thread:tid ~obj:(-(sym + 1));
    st.cur.held <- st.cur.held + 1;
    let v = rhs f in
    let a = target f in
    write st a sym line v;
    st.cur.held <- st.cur.held - 1;
    if sync then st.on_sync Event.Release ~thread:tid ~obj:(-(sym + 1))

  (* Forking is a synchronization edge: the children must observe the
     parent's accesses already pushed, so delayed unlocked accesses cannot
     be scrambled past the fork. *)
  let par st _ arms =
    flush_pending st;
    Effect.perform (Spawn (List.map (fun arm () -> arm st) arms))
end

module C = Compile.Make (Backend)

(* ---- scheduler ---- *)

type run_result = {
  result : int;
  r_stats : stats;
  dynamic_ops : int;  (* distinct static memory operations executed *)
  final_globals : (string * int array) list;
      (* snapshot of every global's final value, scalars as 1-element
         arrays; the observable state differential validation compares *)
}

exception Deadlock

type fiber_wait = tcb * (unit, unit) Effect.Deep.continuation

(* A mutex: its id for the sync hook, whether a thread holds it, and the
   threads waiting for it in arrival order. *)
type mutex = { lid : int; mutable held : bool; queue : fiber_wait Queue.t }

(* A barrier: its id for the sync hook and the threads waiting at it. *)
type barrier = { bid : int; mutable waiters : fiber_wait list }

(* Uninstrumented runs push no loop stack: they share this table, which
   stays empty, rather than allocate their own. *)
let no_lstacks = Intern.Lstack.create ()

let c_switches = Obs.counter "interp.fiber.switches"
let c_spawns = Obs.counter "interp.fiber.spawns"

let enqueue st w =
  let n = Array.length st.slots in
  if st.n_ready = n then begin
    let slots = Array.make (2 * n) no_work in
    Array.blit st.slots 0 slots 0 n;
    st.slots <- slots;
    st.order <- Array.init (2 * n) (fun i -> if i < n then st.order.(i) else i)
  end;
  let s = Array.unsafe_get st.order st.n_ready in
  Array.unsafe_set st.slots s w;
  st.n_ready <- st.n_ready + 1

(* Remove the [k]-th most recently readied fiber from the bag, clearing its
   slot so no continuation outlives its turn. Callers draw [k] below
   [n_ready], and [order] holds slot ids only, so no index can be out of
   bounds. At small bag sizes a bounds check costs about as much as the
   shift, so the accesses are unchecked. *)
let take st k =
  let order = st.order and last = st.n_ready - 1 in
  let i = last - k in
  let s = Array.unsafe_get order i in
  for j = i to last - 1 do
    Array.unsafe_set order j (Array.unsafe_get order (j + 1))
  done;
  Array.unsafe_set order last s;
  st.n_ready <- last;
  let w = Array.unsafe_get st.slots s in
  Array.unsafe_set st.slots s no_work;
  w

let run ?(seed = Rng.default_seed) ?(preempt = true) ?(instrument = true) ?lstacks
    ?(scramble_unlocked = false)
    ?(emit = fun (_ : Event.region) -> ())
    ?(on_access = fun ~kind:_ ~addr:_ ~var:_ ~line:_ ~thread:_ ~time:_ ~op:_
        ~lstack:_ ~locked:_ -> ())
    ?(on_sync = fun (_ : Event.sync) ~thread:_ ~obj:_ -> ())
    ?(on_print = fun (_ : int list) -> ())
    ?(cancelled = fun () -> false) (prog : program) : run_result =
  let lstacks =
    match lstacks with
    | Some t -> t
    | None -> if instrument then Intern.Lstack.create () else no_lstacks
  in
  let st =
    { emit; on_access; on_sync; instrument; lstacks; mem = Array.make 4096 0;
      brk = 1;
      recycled = Compile.Recycle.create (); time = 0;
      op_ids = Array.make 512 (-1);
      op_cache = Array.make (if instrument then 2 * op_cache_size else 0) (-1);
      n_ops = 0; occ = 0; caller_occ = 0;
      rng = Rng.create seed; preempt; on_print; loop_inst = 0;
      cur =
        { tid = 0; lstack = Intern.Lstack.empty; held = 0; group = 0;
          group_live = ref 1 };
      live_threads = 1; next_tid = 1; slots = Array.make 8 no_work;
      order = Array.init 8 Fun.id; n_ready = 0;
      stats =
        { reads = 0; writes = 0; loop_iterations = 0; calls = 0; statements = 0;
          switches = 0; spawns = 0 };
      scramble_unlocked;
      pending = Array.make (Scramble.max_pending * Scramble.width) 0;
      n_pending = 0; drain = Scramble.scratch (); cancelled }
  in
  let compiled = C.prepare ~deallocs:instrument st prog in
  let entry = find_func prog prog.entry in
  let result = ref 0 in
  (* Scheduler state besides the ready bag: per mutex and per barrier, its
     id for the sync hook and the threads waiting on it; join counters for
     [Par] parents. *)
  let locks : (string, mutex) Hashtbl.t = Hashtbl.create 8 in
  let mutex m =
    match Hashtbl.find_opt locks m with
    | Some l -> l
    | None ->
        let l =
          { lid = Hashtbl.length locks; held = false; queue = Queue.create () }
        in
        Hashtbl.add locks m l;
        l
  in
  (* (group, name) -> its barrier. *)
  let barriers : (int * string, barrier) Hashtbl.t = Hashtbl.create 8 in
  let enqueue = enqueue st in
  (* A barrier opens when every live thread of the group has arrived; it is
     also re-checked when a group member finishes without reaching it. *)
  let release_barriers group =
    Hashtbl.iter
      (fun (g, _) b ->
        if g = group then begin
          match b.waiters with
          | (t0, _) :: _ when List.length b.waiters >= !(t0.group_live) ->
              List.iter
                (fun (t, k) ->
                  st.on_sync Event.Depart ~thread:t.tid ~obj:b.bid;
                  enqueue (Resume (k, (), t)))
                b.waiters;
              b.waiters <- []
          | _ -> ()
        end)
      barriers
  in
  let rec dispatch = function
    | Resume (k, x, tcb) ->
        st.cur <- tcb;
        Effect.Deep.continue k x
    | Start (thunk, tcb) ->
        st.cur <- tcb;
        run_fiber tcb thunk
  and schedule () =
    if st.n_ready > 0 then
      dispatch (take st (if st.preempt then Rng.int st.rng st.n_ready else 0))
    else begin
      let blocked =
        Hashtbl.fold (fun _ l n -> n + Queue.length l.queue) locks 0
        + Hashtbl.fold (fun _ b n -> n + List.length b.waiters) barriers 0
      in
      if blocked > 0 then raise Deadlock
    end
  and run_fiber tcb thunk =
    Effect.Deep.match_with
      (fun () -> thunk ())
      ()
      { retc =
          (fun () ->
            st.live_threads <- st.live_threads - 1;
            schedule ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Yield j ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    st.stats.switches <- st.stats.switches + 1;
                    enqueue (Resume (k, (), tcb));
                    dispatch (take st j))
            | Spawn thunks ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let pending = ref (List.length thunks) in
                    st.stats.spawns <- st.stats.spawns + !pending;
                    let group = st.next_tid in
                    let group_live = ref (List.length thunks) in
                    let starts =
                      List.map
                        (fun child_thunk ->
                          let child =
                            { tid = st.next_tid; lstack = tcb.lstack; held = 0;
                              group; group_live }
                          in
                          st.next_tid <- st.next_tid + 1;
                          st.live_threads <- st.live_threads + 1;
                          st.on_sync Event.Fork ~thread:tcb.tid ~obj:child.tid;
                          let wrapped () =
                            if st.instrument then
                              st.emit
                                (Event.Thread_start { thread = child.tid });
                            child_thunk ();
                            (* Thread termination is a synchronization edge:
                               whoever joins on this thread must observe its
                               accesses already pushed, so delayed unlocked
                               accesses cannot be scrambled past the join. *)
                            flush_pending st;
                            if st.instrument then
                              st.emit (Event.Thread_end { thread = child.tid });
                            st.on_sync Event.Join ~thread:tcb.tid
                              ~obj:child.tid;
                            decr child.group_live;
                            release_barriers child.group;
                            decr pending;
                            if !pending = 0 then enqueue (Resume (k, (), tcb))
                          in
                          Start (wrapped, child))
                        thunks
                    in
                    (* Without preemption the first arm, readied last, runs
                       first: the serial elision's order. *)
                    List.iter enqueue
                      (if st.preempt then starts else List.rev starts);
                    schedule ())
            | Acquire m ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let l = mutex m in
                    if l.held then Queue.push (tcb, k) l.queue
                    else begin
                      l.held <- true;
                      st.on_sync Event.Acquire ~thread:tcb.tid ~obj:l.lid;
                      enqueue (Resume (k, (), tcb))
                    end;
                    schedule ())
            | Await_barrier m ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let key = (tcb.group, m) in
                    let b =
                      match Hashtbl.find_opt barriers key with
                      | Some b -> b
                      | None ->
                          let b =
                            { bid = Hashtbl.length barriers; waiters = [] }
                          in
                          Hashtbl.replace barriers key b;
                          b
                    in
                    st.on_sync Event.Arrive ~thread:tcb.tid ~obj:b.bid;
                    b.waiters <- (tcb, k) :: b.waiters;
                    release_barriers tcb.group;
                    schedule ())
            | Release m ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let l = mutex m in
                    st.on_sync Event.Release ~thread:tcb.tid ~obj:l.lid;
                    (if Queue.is_empty l.queue then l.held <- false
                     else begin
                       let tcb', k' = Queue.pop l.queue in
                       st.on_sync Event.Acquire ~thread:tcb'.tid ~obj:l.lid;
                       enqueue (Resume (k', (), tcb'))
                     end);
                    enqueue (Resume (k, (), tcb));
                    schedule ())
            | _ -> None) }
  in
  let main_tcb = st.cur in
  let main () =
    if instrument then
      emit_region st
        (Event.Func_entry { name = entry.fname; line = entry.fline; call_line = 0 });
    result := C.run_main compiled st;
    Backend.leave st entry;
    flush_pending st
  in
  run_fiber main_tcb main;
  Obs.Counter.add c_switches st.stats.switches;
  Obs.Counter.add c_spawns st.stats.spawns;
  { result = !result; r_stats = st.stats; dynamic_ops = st.n_ops;
    final_globals = C.final_globals compiled st }
