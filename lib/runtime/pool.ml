(* A pool of persistent worker domains around per-executor Chase-Lev deques,
   with async/await futures on top.

   Executor 0 is the *caller*: [run] enrols the calling domain so it
   pushes/pops its own deque like any worker.  Executors 1..n-1 are
   spawned domains that live until [shutdown].  Only executors submit or
   help: [async]/[await]/[inline] from any other domain raise
   [Invalid_argument].

   Executor 0 is exclusive across domains: the deques' owner operations
   are single-threaded, so a second domain's [run] waits until the first
   one's returns.  [run] on a domain already enrolled in the pool (nesting,
   or a task calling back in) keeps its executor.

   [shared d] is the process's persistent pool of [d] executors, created
   on first use and never shut down, so callers that enrol in turn (Validate,
   Measure) reuse one set of worker domains instead of spawning their own.

   Tasks must not block: [await] helps (pop own deque, then steal) instead
   of waiting, so as long as every submitted task is itself non-blocking
   the pool cannot deadlock.  Code that needs real blocking (the
   interpreter's lock-serialized DOACROSS hand-offs) runs on dedicated
   domains outside the pool — see [Mil.Par_eval]. *)

type stats = {
  mutable tasks : int;  (* tasks executed by this executor *)
  mutable steals : int; (* successful steals by this executor *)
  mutable busy_ns : int; (* wall time spent inside outermost tasks *)
}

type t = {
  uid : int;
  n : int; (* executors, including the caller slot 0 *)
  deques : (int -> unit) Deque.t array; (* a task gets its executor's index *)
  stats : stats array;
  depth : int array; (* tasks running on each executor, nested by helping *)
  stop : bool Atomic.t;
  pending : int Atomic.t; (* submitted but not yet completed *)
  mutable workers : unit Domain.t array;
  exec0 : Mutex.t; (* held by the domain enrolled as executor 0 *)
  c_tasks : Obs.counter;
  c_steals : Obs.counter;
  c_busy : Obs.counter array;
  h_wake : Obs.histogram;
}

let next_uid = Atomic.make 0

(* Which pool/executor the current domain is enrolled in, if any. *)
let dls : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let executor pool =
  match !(Domain.DLS.get dls) with
  | Some (uid, i) when uid = pool.uid -> i
  | _ -> invalid_arg "Runtime.Pool: the calling domain is not an executor"

(* Cheap per-executor xorshift for randomized victim order. *)
let rand_next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st := x land max_int;
  !st

(* Run [f] as one of executor [i]'s tasks.  The task is recorded before
   [counted] returns, so whoever learns of its completion afterwards (a
   future's awaiter) reads stats that already include it.  A task that
   awaits helps by running others inside its own time, so only the
   outermost task on an executor adds to [busy_ns]: the nested ones would
   count the same wall time twice. *)
let counted pool i f =
  let outer = pool.depth.(i) = 0 in
  let t0 = if outer then Obs.now_ns () else 0 in
  pool.depth.(i) <- pool.depth.(i) + 1;
  let record () =
    pool.depth.(i) <- pool.depth.(i) - 1;
    let st = pool.stats.(i) in
    st.tasks <- st.tasks + 1;
    if outer then begin
      let dt = Obs.now_ns () - t0 in
      st.busy_ns <- st.busy_ns + dt;
      Obs.Counter.add pool.c_busy.(i) dt
    end;
    Obs.Counter.incr pool.c_tasks
  in
  match f () with
  | v ->
      record ();
      v
  | exception e ->
      record ();
      raise e

let execute pool i task =
  task i;
  ignore (Atomic.fetch_and_add pool.pending (-1))

(* One scheduling attempt for executor [i]: own deque, then steals in a
   randomized sweep over the other executors.  Returns true if a task was
   run. *)
let try_run_as pool i rng =
  match Deque.pop pool.deques.(i) with
  | Some task ->
      execute pool i task;
      true
  | None -> (
      let n = pool.n in
      let stolen = ref None in
      if n > 1 then begin
        let off = rand_next rng in
        let k = ref 0 in
        while !stolen = None && !k < n - 1 do
          (* [land max_int] first: [off + !k] can wrap negative, and a
             negative [mod] would index the deque array out of bounds. *)
          let v = (i + 1 + (((off + !k) land max_int) mod (n - 1))) mod n in
          (match Deque.steal pool.deques.(v) with
          | Some task -> stolen := Some task
          | None -> ());
          incr k
        done
      end;
      match !stolen with
      | Some task ->
          pool.stats.(i).steals <- pool.stats.(i).steals + 1;
          Obs.Counter.incr pool.c_steals;
          execute pool i task;
          true
      | None -> false)

(* Run [f] now on the calling executor, counted as one of its tasks. *)
let inline pool f = counted pool (executor pool) f

type 'a state = Pending | Done of 'a | Raised of exn

type 'a future = 'a state Atomic.t

(* Queue [f] on the calling executor's deque.  The future captures [f]'s
   exception, so none reaches the executor that runs it.  A task run by
   another executor than its submitter's was stolen: its push-to-start
   delay goes to [runtime.wake_ns]. *)
let async pool f =
  let i = executor pool in
  let fut = Atomic.make Pending in
  let pushed = Obs.now_ns () in
  ignore (Atomic.fetch_and_add pool.pending 1);
  Deque.push pool.deques.(i) (fun j ->
      if j <> i then Obs.Histogram.observe pool.h_wake (Obs.now_ns () - pushed);
      let r = counted pool j (fun () -> try Done (f ()) with e -> Raised e) in
      Atomic.set fut r);
  fut

(* Per-domain rng for the help loop's steal sweep. *)
let help_rng : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0x2545f491)

(* Never blocks the domain: while the future is pending the executor runs
   other pool tasks, and only backs off with [cpu_relax] when nothing is
   runnable.  This keeps recursive task graphs (fib/sort/strassen)
   deadlock-free on a fixed set of workers. *)
let await pool fut =
  let i = executor pool and rng = Domain.DLS.get help_rng in
  let rec go () =
    match Atomic.get fut with
    | Done v -> v
    | Raised e -> raise e
    | Pending ->
        if not (try_run_as pool i rng) then Domain.cpu_relax ();
        go ()
  in
  go ()

let worker_loop pool i =
  let cell = Domain.DLS.get dls in
  cell := Some (pool.uid, i);
  let rng = ref (0x9e3779b9 + (i * 0x85ebca6b)) in
  let idle = ref 0 in
  let continue = ref true in
  while !continue do
    if try_run_as pool i rng then idle := 0
    else if Atomic.get pool.stop && Atomic.get pool.pending = 0 then
      continue := false
    else begin
      incr idle;
      (* Spin briefly, then back off to short sleeps so an idle pool does
         not burn a core. *)
      if !idle < 64 then Domain.cpu_relax ()
      else if !idle < 256 then Unix.sleepf 0.00005
      else Unix.sleepf 0.001
    end
  done;
  cell := None

let create ?(domains = Domain.recommended_domain_count ()) () =
  let n = max 1 domains in
  let pool =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      n;
      deques = Array.init n (fun _ -> Deque.create ());
      stats = Array.init n (fun _ -> { tasks = 0; steals = 0; busy_ns = 0 });
      depth = Array.make n 0;
      stop = Atomic.make false;
      pending = Atomic.make 0;
      workers = [||];
      exec0 = Mutex.create ();
      c_tasks = Obs.counter "runtime.tasks";
      c_steals = Obs.counter "runtime.steals";
      c_busy =
        Array.init n (fun i ->
            Obs.counter (Printf.sprintf "runtime.worker%d.busy_ns" i));
      h_wake = Obs.histogram "runtime.wake_ns";
    }
  in
  pool.workers <-
    Array.init (n - 1) (fun k -> Domain.spawn (fun () -> worker_loop pool (k + 1)));
  pool

(* Enrol the calling domain as executor 0 for the duration of [f], so its
   submissions go to its own deque and its awaits help.  A domain that is
   already one of this pool's executors runs [f] as that executor. *)
let run pool f =
  let cell = Domain.DLS.get dls in
  match !cell with
  | Some (uid, _) when uid = pool.uid -> f ()
  | saved ->
      Mutex.lock pool.exec0;
      cell := Some (pool.uid, 0);
      Fun.protect
        ~finally:(fun () ->
          cell := saved;
          Mutex.unlock pool.exec0)
        f

let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_mu = Mutex.create ()

let shared d =
  let d = max 1 d in
  Mutex.protect shared_mu (fun () ->
      match Hashtbl.find_opt shared_pools d with
      | Some pool -> pool
      | None ->
          let pool = create ~domains:d () in
          Hashtbl.replace shared_pools d pool;
          pool)

(* Workers finish everything already submitted, then exit. *)
let shutdown pool =
  Atomic.set pool.stop true;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||];
  (* A one-executor pool has no workers: the caller drains what its own
     submissions left queued, so pending work is never silently dropped. *)
  run pool (fun () ->
      let rng = ref 1 in
      while Atomic.get pool.pending > 0 do
        if not (try_run_as pool 0 rng) then Domain.cpu_relax ()
      done)

let stats pool =
  Array.map
    (fun s -> { tasks = s.tasks; steals = s.steals; busy_ns = s.busy_ns })
    pool.stats

type activity = { a_tasks : int; a_steals : int; a_imbalance : float }

(* What the executors did between two [stats] snapshots.  Imbalance is max
   busy / mean busy over all executors: 1.0 = perfectly balanced, and 1.0
   when nothing ran. *)
let activity ~before after =
  let d f = Array.mapi (fun i s -> f s - f before.(i)) after in
  let sum a = Array.fold_left ( + ) 0 a in
  let busy = d (fun s -> s.busy_ns) in
  let total = sum busy in
  {
    a_tasks = sum (d (fun s -> s.tasks));
    a_steals = sum (d (fun s -> s.steals));
    a_imbalance =
      (if total <= 0 then 1.0
       else
         float_of_int (Array.fold_left max 0 busy * Array.length busy)
         /. float_of_int total);
  }
