(* Parallel MIL evaluation on real domains (see par_eval.mli).

   The evaluation is {!Compile}'s, as for {!Interp}; this backend has no
   instrumentation, and a memory and scheduling model that is safe under
   real concurrency:

   - the heap is paged: a fixed table of [int array Atomic.t] pages,
     installed on first touch with a CAS.  Addresses are allocated by a
     global fetch-and-add bump pointer; each task carves per-task arenas
     out of it so allocation is contention-free off the refill path.
     Scope-exit recycling goes to task-local free lists only — addresses
     never migrate between tasks, so no cross-task ABA.
   - the caller of [run] is the pool's executor 0.  [Par] blocks free of
     blocking synchronisation run as fork-join tasks on a
     {!Runtime.Pool}: first block inline (counted as one of the running
     executor's tasks), siblings async, awaited with help (the awaiting
     task runs other pool work), so pool tasks never block and the fixed
     worker set cannot deadlock.  Inside a dedicated domain (below), which
     is not an executor, such a block runs its arms inline in order.
   - [Par] blocks that do synchronise (transitively through calls and
     nested [Par]: [Lock]/[Unlock]/[Barrier]) each get a dedicated
     [Domain.spawn]: the DOACROSS hand-off loops emitted by
     [Transform.Parallelize] busy-wait on a flag under a lock, and a
     busy-wait must never occupy a pool worker another task needs to make
     the flag true.  Which [Par] statements synchronise is decided when
     the program is lowered. *)

open Ast
module Rng = Compile.Rng

exception Cancelled = Compile.Cancelled

let error fmt =
  Printf.ksprintf (fun s -> raise (Compile.Runtime_error s)) fmt

(* ---- paged shared heap ---- *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let max_pages = 1 lsl 16 (* 2^28 ints =~ 2 GiB of heap, far above any workload *)

(* Pages are installed once, under [grow], and never replaced; the table
   itself is replaced by a larger copy when an address passes its end.
   Tasks read it without the lock: a stale read finds no page and retries
   under the lock. *)
type mem = { mutable pages : int array array; grow : Mutex.t; next : int Atomic.t }

let no_page : int array = [||]

let mem_create () =
  { pages = [||]; grow = Mutex.create ();
    next = Atomic.make 1 (* address 0 stays unused, as in Interp *) }

let page m i =
  let tbl = m.pages in
  if i >= 0 && i < Array.length tbl && tbl.(i) != no_page then tbl.(i)
  else begin
    if i < 0 || i >= max_pages then error "parallel heap exhausted";
    Mutex.protect m.grow (fun () ->
        let n = Array.length m.pages in
        if i >= n then begin
          let t = Array.make (min max_pages (max (i + 1) (2 * n))) no_page in
          Array.blit m.pages 0 t 0 n;
          m.pages <- t
        end;
        if m.pages.(i) == no_page then m.pages.(i) <- Array.make page_size 0;
        m.pages.(i))
  end

let bump m size = Atomic.fetch_and_add m.next size

(* ---- barrier groups (dedicated-domain path only) ---- *)

type bstate = { mutable arrived : int; mutable phase : int }

type group = {
  g_mu : Mutex.t;
  g_cv : Condition.t;
  mutable g_live : int;
  g_bars : (string, bstate) Hashtbl.t;
}

let group_create n =
  {
    g_mu = Mutex.create ();
    g_cv = Condition.create ();
    g_live = n;
    g_bars = Hashtbl.create 4;
  }

(* A barrier opens when every still-live member of the group has arrived —
   the same rule as the fiber scheduler, where members that finish without
   reaching the barrier stop being counted. *)
let open_ready_bars g =
  Hashtbl.iter
    (fun _ b ->
      if b.arrived > 0 && b.arrived >= g.g_live then begin
        b.arrived <- 0;
        b.phase <- b.phase + 1
      end)
    g.g_bars;
  Condition.broadcast g.g_cv

let group_leave g =
  Mutex.protect g.g_mu (fun () ->
      g.g_live <- g.g_live - 1;
      open_ready_bars g)

let barrier_arrive g name =
  Mutex.protect g.g_mu (fun () ->
      let b =
        match Hashtbl.find_opt g.g_bars name with
        | Some b -> b
        | None ->
            let b = { arrived = 0; phase = 0 } in
            Hashtbl.add g.g_bars name b;
            b
      in
      b.arrived <- b.arrived + 1;
      if b.arrived >= g.g_live then open_ready_bars g
      else
        let ph = b.phase in
        while b.phase = ph do
          Condition.wait g.g_cv g.g_mu
        done)

(* ---- run state and per-task context ---- *)

type state = {
  mem : mem;
  pool : Runtime.Pool.t option;
  locks : (string, Mutex.t) Hashtbl.t;
  stripes : Mutex.t array; (* Atomic_assign serialization, hashed by addr *)
  rng : Rng.t;
  rng_mu : Mutex.t;
  print_mu : Mutex.t;
  on_print : int list -> unit;
  cancelled : unit -> bool;
  failed : exn option Atomic.t;
      (* first failure from any task; other tasks poll it so a crashed
         DOACROSS producer cannot leave its consumer spinning forever *)
}

let n_stripes = 64

(* A task's first arena is small and each refill doubles it: fork-join
   programs spawn thousands of tasks that allocate a few words each, and a
   full chunk per task would touch a fresh page per task (64 MB per run
   for fib@15's 1972 tasks). *)
let arena_chunk = 4096
let first_arena = 256
let big_alloc = 2048 (* allocations this large bypass the arena *)

(* Per-task cache of the last two page pointers touched: a page's array is
   immutable once installed, so caching the pointer skips the Atomic.get
   on the per-access hot path (values inside the page are still read
   fresh; only the pointer is cached).  Two entries cover the common
   read-one-array / write-another iteration shape. *)
type task = {
  st : state;
  mutable cur : int; (* arena bump pointer *)
  mutable lim : int;
  mutable chunk : int; (* next arena size, doubling up to [arena_chunk] *)
  recycled : Compile.Recycle.t; (* task-local: addresses never migrate *)
  mutable ticks : int;
  group : group option; (* barrier group, on the dedicated-domain path *)
  mutable pc_idx0 : int;
  mutable pc_page0 : int array;
  mutable pc_idx1 : int;
  mutable pc_page1 : int array;
}

let task_create ?group st =
  {
    st;
    cur = 0;
    lim = 0;
    chunk = first_arena;
    recycled = Compile.Recycle.create ();
    ticks = 0;
    group;
    pc_idx0 = -1;
    pc_page0 = no_page;
    pc_idx1 = -1;
    pc_page1 = no_page;
  }

let get_page t idx =
  if t.pc_idx0 = idx then t.pc_page0
  else begin
    let p = if t.pc_idx1 = idx then t.pc_page1 else page t.st.mem idx in
    t.pc_idx1 <- t.pc_idx0;
    t.pc_page1 <- t.pc_page0;
    t.pc_idx0 <- idx;
    t.pc_page0 <- p;
    p
  end

let load t addr = (get_page t (addr lsr page_bits)).(addr land page_mask)

let store t addr v =
  (get_page t (addr lsr page_bits)).(addr land page_mask) <- v

let check_failed st =
  if st.cancelled () then raise Cancelled;
  match Atomic.get st.failed with
  | Some _ ->
      (* another task already crashed; unwind quietly so joins report the
         original error rather than a pile of secondary spins *)
      raise Cancelled
  | None -> ()

(* Every arm is joined whichever one failed — the pool outlives the run
   (Measure reuses one across reps), so an unjoined sibling would keep
   executing into the caller's next use of the pool — then the first real
   (non-Cancelled) error is raised, falling back to Cancelled. *)
let join_all outcomes =
  match
    List.find_map
      (function Some Cancelled -> None | Some ex -> Some ex | None -> None)
      outcomes
  with
  | Some ex -> raise ex
  | None -> if List.exists Option.is_some outcomes then raise Cancelled

let record_failure st ex = ignore (Atomic.compare_and_set st.failed None (Some ex))

module Backend = struct
  type ctx = task
  type loop = unit

  let read t addr _ _ = load t addr
  let write t addr _ _ v = store t addr v
  let peek = load
  let poke = store

  let recycled t = t.recycled

  let fresh t size =
    if size >= big_alloc then bump t.st.mem size
    else begin
      if t.cur + size > t.lim then begin
        let chunk = max t.chunk size in
        t.chunk <- min arena_chunk (2 * t.chunk);
        t.cur <- bump t.st.mem chunk;
        t.lim <- t.cur + chunk
      end;
      let a = t.cur in
      t.cur <- t.cur + size;
      a
    end

  let dealloc _ _ = ()

  let stmt t =
    t.ticks <- t.ticks + 1;
    if t.ticks land 2047 = 0 then check_failed t.st

  let enter _ _ _ = ()
  let entered _ = ()
  let leave _ _ = ()
  let loop_enter _ _ = ()
  let loop_head _ () _ = ()
  let loop_body _ () _ = ()
  let loop_exit _ () _ = ()

  let rand t bound =
    Mutex.protect t.st.rng_mu (fun () -> Rng.draw t.st.rng bound)

  let print t vs = Mutex.protect t.st.print_mu (fun () -> t.st.on_print vs)

  let find_lock t m =
    match Hashtbl.find_opt t.st.locks m with
    | Some mu -> mu
    | None -> error "unknown lock %s" m

  let lock t m = Mutex.lock (find_lock t m)
  let unlock t m = Mutex.unlock (find_lock t m)

  (* sole thread: a barrier is a no-op, as in Interp *)
  let barrier t m = Option.iter (fun g -> barrier_arrive g m) t.group

  (* The read-modify-write must be indivisible: reduction merges read the
     target inside the RHS.  Serialize through a stripe hashed by the
     target address, evaluated outside the stripe (indices are private in
     the transforms that emit Atomic_assign); the RHS is evaluated under
     the stripe, so it must not itself Lock or atomically update a
     colliding stripe — true of everything Transform emits. *)
  let atomic t f rhs target _ _ =
    let a = target f in
    Mutex.protect t.st.stripes.(a land (n_stripes - 1)) (fun () ->
        store t a (rhs f))

  let par t sync arms =
    let st = t.st in
    let guarded ct arm =
      try arm ct
      with ex ->
        record_failure st ex;
        raise ex
    in
    if sync then begin
      (* Dedicated domain per arm: arms may block on locks/barriers or
         busy-wait on hand-off flags, and the OS scheduler guarantees every
         arm keeps running regardless of arm order or pool capacity. *)
      let g = group_create (List.length arms) in
      List.map
        (fun arm ->
          Domain.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> group_leave g)
                (fun () -> guarded (task_create ~group:g st) arm)))
        arms
      |> List.map (fun d -> try Domain.join d; None with ex -> Some ex)
      |> join_all
    end
    else
      match (st.pool, t.group, arms) with
      | None, _, _ | _, Some _, _ | _, _, [] ->
          (* no pool, or a dedicated domain (the only tasks with a group),
             which is no pool executor: arms run inline in order (sync-free
             arms cannot depend on each other's interleaving) *)
          List.iter (fun arm -> arm t) arms
      | Some pool, None, first :: rest ->
          (* fork-join: siblings are stealable, first arm runs inline *)
          let futs =
            List.map
              (fun arm ->
                Runtime.Pool.async pool (fun () -> guarded (task_create st) arm))
              rest
          in
          let inline =
            try Runtime.Pool.inline pool (fun () -> guarded t first); None
            with ex -> Some ex
          in
          inline
          :: List.map
               (fun fut -> try Runtime.Pool.await pool fut; None with ex -> Some ex)
               futs
          |> join_all
end

module C = Compile.Make (Backend)

(* ---- entry point ---- *)

type result = { result : int; final_globals : (string * int array) list }

let run ?pool ?(seed = Rng.default_seed) ?(on_print = fun (_ : int list) -> ())
    ?(cancelled = fun () -> false) (prog : program) : result =
  let st =
    {
      mem = mem_create ();
      pool;
      locks = Hashtbl.create 8;
      stripes = Array.init n_stripes (fun _ -> Mutex.create ());
      rng = Rng.create seed;
      rng_mu = Mutex.create ();
      print_mu = Mutex.create ();
      on_print;
      cancelled;
      failed = Atomic.make None;
    }
  in
  let t = task_create st in
  let enrolled f = match pool with Some p -> Runtime.Pool.run p f | None -> f () in
  (* Globals and locks are installed by the main task before any
     parallelism; the tables are read-only afterwards. *)
  try
    enrolled @@ fun () ->
    let compiled = C.prepare t prog in
    List.iter (fun m -> Hashtbl.replace st.locks m (Mutex.create ())) (C.locks compiled);
    let result = C.run_main compiled t in
    { result; final_globals = C.final_globals compiled t }
  with ex -> (
    (* prefer the root cause recorded by the first failing task *)
    match (ex, Atomic.get st.failed) with
    | Cancelled, Some root when root <> Cancelled -> raise root
    | _ -> raise ex)
