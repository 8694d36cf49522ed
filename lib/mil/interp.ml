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
  | Yield : unit Effect.t
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
}

type state = {
  emit : Event.region -> unit;
  on_access : Event.access_sink;
  instrument : bool;
  lstacks : Intern.Lstack.t;      (* the run's loop stacks *)
  mutable mem : int array;
  mutable brk : int;
  recycled : Compile.Recycle.t;
  mutable time : int;
  mutable op_ids : int array;     (* packed (line,kind,occ) -> op id *)
  mutable n_ops : int;
  mutable occ : int;              (* occurrence counter within a statement *)
  mutable caller_occ : int;       (* [occ] of the statement making a call *)
  rng : Rng.t;
  on_print : int list -> unit;
  mutable loop_inst : int;
  mutable cur : tcb;
  mutable live_threads : int;
  mutable next_tid : int;
  stats : stats;
  (* Optional reordering of unlocked pushes, to exercise race detection: the
     access as seen by the profiler may arrive out of timestamp order. *)
  scramble_unlocked : bool;
  mutable pending : Event.access list;  (* delayed unlocked accesses *)
  (* Cooperative cancellation: polled every 2048 statements so a deadline
     watchdog (batch driver, serve daemon) can stop a run without
     per-statement cost. *)
  cancelled : unit -> bool;
}

(* ---- event emission ---- *)

(* Emit delayed unlocked accesses in a scrambled cross-thread interleaving.
   A profiling thread pushes its own accesses in program order — only the
   interleaving between threads is nondeterministic (§2.3.4) — so
   per-thread order is preserved and timestamp reversals (the race signal)
   are only ever manufactured across threads. *)
let flush_pending st =
  match st.pending with
  | [] -> ()
  | pending ->
      let accs = List.rev pending in
      st.pending <- [];
      let tid (a : Event.access) = a.thread in
      let tids = List.sort_uniq compare (List.map tid accs) in
      let queues =
        List.map (fun t -> ref (List.filter (fun a -> tid a = t) accs)) tids
      in
      let rec drain () =
        match List.filter (fun q -> !q <> []) queues with
        | [] -> ()
        | qs ->
            let q = List.nth qs (Rng.int st.rng (List.length qs)) in
            (match !q with
            | { Event.kind; addr; var; line; thread; time; op; lstack; locked }
              :: rest ->
                st.on_access ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
                  ~locked;
                q := rest
            | [] -> assert false);
            drain ()
      in
      drain ()

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

let intern_op st line kind =
  let key = (line * 64 + st.occ) * 2 + (match kind with Event.Read -> 0 | Event.Write -> 1) in
  st.occ <- st.occ + 1;
  let i = op_index st.op_ids key in
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

let emit_access st kind addr var line =
  st.time <- st.time + 1;
  let op = intern_op st line kind in
  let locked = st.cur.held > 0 in
  if st.scramble_unlocked && st.live_threads > 1 && not locked then begin
    (* Delayed accesses must exist as records: the scrambler buffers and
       reorders them before handing them to the sink. *)
    st.pending <-
      { Event.kind; addr; var; line; thread = st.cur.tid; time = st.time;
        op; lstack = st.cur.lstack; locked }
      :: st.pending;
    if List.length st.pending > 4 then flush_pending st
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

  let stmt st =
    if st.live_threads > 1 then Effect.perform Yield;
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

  (* Atomicity: the update counts as lock-protected for race reporting. *)
  let atomic st f rhs target sym line =
    st.cur.held <- st.cur.held + 1;
    let v = rhs f in
    let a = target f in
    write st a sym line v;
    st.cur.held <- st.cur.held - 1

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

(* Uninstrumented runs push no loop stack: they share this table, which
   stays empty, rather than allocate their own. *)
let no_lstacks = Intern.Lstack.create ()

type work =
  | Resume : ('a, unit) Effect.Deep.continuation * 'a * tcb -> work
  | Start of (unit -> unit) * tcb

let run ?(seed = 42) ?(instrument = true) ?lstacks ?(scramble_unlocked = false)
    ?(emit = fun (_ : Event.region) -> ())
    ?(on_access = fun ~kind:_ ~addr:_ ~var:_ ~line:_ ~thread:_ ~time:_ ~op:_
        ~lstack:_ ~locked:_ -> ())
    ?(on_print = fun (_ : int list) -> ())
    ?(cancelled = fun () -> false) (prog : program) : run_result =
  let lstacks =
    match lstacks with
    | Some t -> t
    | None -> if instrument then Intern.Lstack.create () else no_lstacks
  in
  let st =
    { emit; on_access; instrument; lstacks; mem = Array.make 4096 0; brk = 1;
      recycled = Compile.Recycle.create (); time = 0;
      op_ids = Array.make 512 (-1); n_ops = 0; occ = 0; caller_occ = 0;
      rng = Rng.create seed; on_print; loop_inst = 0;
      cur =
        { tid = 0; lstack = Intern.Lstack.empty; held = 0; group = 0;
          group_live = ref 1 };
      live_threads = 1; next_tid = 1;
      stats =
        { reads = 0; writes = 0; loop_iterations = 0; calls = 0; statements = 0 };
      scramble_unlocked; pending = []; cancelled }
  in
  let compiled = C.prepare ~deallocs:instrument st prog in
  let entry = find_func prog prog.entry in
  let result = ref 0 in
  (* Scheduler state: a bag of runnable work items picked pseudo-randomly, a
     per-mutex wait queue, and join counters for [Par] parents. *)
  let readyq : work list ref = ref [] in
  let waiting :
      (string, (tcb * (unit, unit) Effect.Deep.continuation) Queue.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let lock_owner : (string, int option) Hashtbl.t = Hashtbl.create 8 in
  (* Barrier state: (group, name) -> threads currently waiting. *)
  let barriers :
      (int * string, (tcb * (unit, unit) Effect.Deep.continuation) list ref)
      Hashtbl.t =
    Hashtbl.create 8
  in
  let enqueue w = readyq := w :: !readyq in
  (* A barrier opens when every live thread of the group has arrived; it is
     also re-checked when a group member finishes without reaching it. *)
  let release_barriers group =
    Hashtbl.iter
      (fun (g, _) waiters ->
        if g = group then begin
          match !waiters with
          | (t0, _) :: _ when List.length !waiters >= !(t0.group_live) ->
              List.iter (fun (t, k) -> enqueue (Resume (k, (), t))) !waiters;
              waiters := []
          | _ -> ()
        end)
      barriers
  in
  let pick () =
    match !readyq with
    | [] -> None
    | l ->
        let n = List.length l in
        let k = Rng.int st.rng n in
        let chosen = List.nth l k in
        readyq := List.filteri (fun i _ -> i <> k) l;
        Some chosen
  in
  let rec schedule () =
    match pick () with
    | Some (Resume (k, x, tcb)) ->
        st.cur <- tcb;
        Effect.Deep.continue k x
    | Some (Start (thunk, tcb)) ->
        st.cur <- tcb;
        run_fiber tcb thunk
    | None ->
        let blocked =
          Hashtbl.fold (fun _ q n -> n + Queue.length q) waiting 0
          + Hashtbl.fold (fun _ w n -> n + List.length !w) barriers 0
        in
        if blocked > 0 then raise Deadlock
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
            | Yield ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    enqueue (Resume (k, (), tcb));
                    schedule ())
            | Spawn thunks ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let pending = ref (List.length thunks) in
                    let group = st.next_tid in
                    let group_live = ref (List.length thunks) in
                    List.iter
                      (fun child_thunk ->
                        let child =
                          { tid = st.next_tid; lstack = tcb.lstack; held = 0;
                            group; group_live }
                        in
                        st.next_tid <- st.next_tid + 1;
                        st.live_threads <- st.live_threads + 1;
                        let wrapped () =
                          if st.instrument then
                            st.emit (Event.Thread_start { thread = child.tid });
                          child_thunk ();
                          (* Thread termination is a synchronization edge:
                             whoever joins on this thread must observe its
                             accesses already pushed, so delayed unlocked
                             accesses cannot be scrambled past the join. *)
                          flush_pending st;
                          if st.instrument then
                            st.emit (Event.Thread_end { thread = child.tid });
                          decr child.group_live;
                          release_barriers child.group;
                          decr pending;
                          if !pending = 0 then enqueue (Resume (k, (), tcb))
                        in
                        enqueue (Start (wrapped, child)))
                      thunks;
                    schedule ())
            | Acquire m ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let owner =
                      try Hashtbl.find lock_owner m with Not_found -> None
                    in
                    (match owner with
                    | None ->
                        Hashtbl.replace lock_owner m (Some tcb.tid);
                        enqueue (Resume (k, (), tcb))
                    | Some _ ->
                        let q =
                          match Hashtbl.find_opt waiting m with
                          | Some q -> q
                          | None ->
                              let q = Queue.create () in
                              Hashtbl.replace waiting m q;
                              q
                        in
                        Queue.push (tcb, k) q);
                    schedule ())
            | Await_barrier m ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    let key = (tcb.group, m) in
                    let waiters =
                      match Hashtbl.find_opt barriers key with
                      | Some w -> w
                      | None ->
                          let w = ref [] in
                          Hashtbl.replace barriers key w;
                          w
                    in
                    waiters := (tcb, k) :: !waiters;
                    release_barriers tcb.group;
                    schedule ())
            | Release m ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    (match Hashtbl.find_opt waiting m with
                    | Some q when not (Queue.is_empty q) ->
                        let tcb', k' = Queue.pop q in
                        Hashtbl.replace lock_owner m (Some tcb'.tid);
                        enqueue (Resume (k', (), tcb'))
                    | Some _ | None -> Hashtbl.replace lock_owner m None);
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
  { result = !result; r_stats = st.stats; dynamic_ops = st.n_ops;
    final_globals = C.final_globals compiled st }

(* Run and collect all events into a list; convenient for tests and for the
   offline (phase-2) analyses. *)
let trace ?seed ?scramble_unlocked prog =
  let acc = ref [] in
  let res =
    run ?seed ?scramble_unlocked
      ~emit:(fun r -> acc := Event.Region r :: !acc)
      ~on_access:(fun ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked ->
        acc :=
          Event.Access { kind; addr; var; line; thread; time; op; lstack; locked }
          :: !acc)
      prog
  in
  (res, List.rev !acc)
