(* The parallel DiscoPoP profiler (§2.3.3, Fig. 2.2).

   The main thread executes the target program (here: the MIL interpreter)
   and acts as producer: it packs memory accesses, as unboxed fields, into
   per-worker chunks and pushes full chunks into the lock-free SPSC queue of
   the worker that owns the address. Worker domains consume chunks, run the dependence engine
   over their address shard, and store dependences in thread-local maps that
   are merged at the end — duplicate-free, so the merge is cheap.

   Addresses are distributed by [addr mod W] (Eq. 2.1), and an address never
   changes owner, so each worker sees every access to its addresses in
   program order and the merged dependences are the serial profiler's. The
   paper also moves the hottest addresses to other workers; that is
   deliberately left out (see DESIGN.md): moving one loses the dependences
   that span the move, and the per-access frequency counting cost more than
   it balanced.

   A lock-based variant (mutex-protected queues) exists solely as the
   baseline of Fig. 2.9's lock-free-vs-lock-based comparison. *)

module Event = Trace.Event
module Chunk = Trace.Chunk

type item =
  | Ichunk of Chunk.t
  | Istop

type queue_kind = Lockfree | Lock_based

(* Mutex-protected queue used only for the lock-based comparison baseline. *)
module Locked_queue = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Mutex.t;
    capacity : int;
    mutable stalls : int;    (* producer-owned: full-queue backoff rounds *)
  }

  let create ~capacity =
    { q = Queue.create (); m = Mutex.create (); capacity; stalls = 0 }

  let push t x =
    let rec go () =
      Mutex.lock t.m;
      if Queue.length t.q >= t.capacity then begin
        Mutex.unlock t.m;
        t.stalls <- t.stalls + 1;
        Domain.cpu_relax ();
        go ()
      end
      else begin
        Queue.push x t.q;
        Mutex.unlock t.m
      end
    in
    go ()

  let try_pop t =
    Mutex.lock t.m;
    let r = Queue.take_opt t.q in
    Mutex.unlock t.m;
    r

  let length t =
    Mutex.lock t.m;
    let n = Queue.length t.q in
    Mutex.unlock t.m;
    n
end

type channel =
  | Cfree of item Spsc_queue.t
  | Clocked of item Locked_queue.t

let channel_push c x =
  match c with
  | Cfree q -> Spsc_queue.push q x
  | Clocked q -> Locked_queue.push q x

let channel_try_pop c =
  match c with
  | Cfree q -> Spsc_queue.try_pop q
  | Clocked q -> Locked_queue.try_pop q

let channel_stalls c =
  match c with
  | Cfree q -> Spsc_queue.stalls q
  | Clocked q -> q.Locked_queue.stalls

let channel_depth c =
  match c with
  | Cfree q -> Spsc_queue.length q
  | Clocked q -> Locked_queue.length q

type worker_result = {
  w_deps : Dep.Set_.t;
  w_races : (string * int * int) list;
  w_processed : int;
  w_footprint : int;
  w_skip : Engine.skip_stats;
  w_chunks : int;          (* chunks consumed by this worker *)
  w_idle_spins : int;      (* empty-queue backoff rounds (consumer stalls) *)
}

type result = Serial.result

let sum_skip (a : Engine.skip_stats) (b : Engine.skip_stats) : Engine.skip_stats =
  { Engine.reads_total = a.Engine.reads_total + b.Engine.reads_total;
    writes_total = a.writes_total + b.writes_total;
    reads_skipped = a.reads_skipped + b.reads_skipped;
    writes_skipped = a.writes_skipped + b.writes_skipped;
    skipped_raw = a.skipped_raw + b.skipped_raw;
    skipped_war = a.skipped_war + b.skipped_war;
    skipped_waw = a.skipped_waw + b.skipped_waw;
    shadow_update_elided = a.shadow_update_elided + b.shadow_update_elided }

let worker_loop (queue : channel) ~(returns : Chunk.t Spsc_queue.t)
    ~index ~lstacks ~shadow ~skip () : worker_result =
  (* Name this domain's track on the trace timeline (no-op when tracing is
     off); each worker then appears as its own row in chrome://tracing. *)
  Obs.Trace.set_track (Printf.sprintf "worker %d" index);
  let engine = Engine.create ~skip ~lstacks shadow in
  let access = Engine.feed_fields engine in
  let remove addr = Engine.feed_dealloc engine [ (addr, 1, "") ] in
  let chunks = ref 0 in
  let idle_spins = ref 0 in
  let rec loop backoff =
    match channel_try_pop queue with
    | Some (Ichunk chunk) ->
        incr chunks;
        let consume () = Chunk.iter chunk ~access ~remove in
        if Obs.Trace.is_enabled () then
          Obs.Trace.with_span
            (Printf.sprintf "chunk.%d" (Chunk.seq chunk))
            consume
        else consume ();
        (* Hand the drained chunk back to the producer for recycling. The
           return channel is SPSC with this worker as producer; when it is
           full the chunk is simply dropped for the GC — never block here. *)
        Chunk.reset chunk;
        ignore (Spsc_queue.try_push returns chunk);
        loop 1
    | Some Istop ->
        (* Per-worker shadow/skip statistics go out under a per-worker engine
           prefix (engine.w0, engine.w1, …): concurrent workers must not
           overwrite each other's shadow gauges under the shared default
           "engine" prefix. Atomic counters make cross-domain publishing
           safe. *)
        Engine.observe ~prefix:(Printf.sprintf "engine.w%d" index) engine;
        { w_deps = Engine.deps engine;
          w_races = Engine.races engine;
          w_processed = Engine.processed engine;
          w_footprint = Engine.word_footprint engine;
          w_skip = Engine.skip_stats engine;
          w_chunks = !chunks;
          w_idle_spins = !idle_spins }
    | None ->
        incr idle_spins;
        for _ = 1 to backoff do
          Domain.cpu_relax ()
        done;
        loop (min (2 * backoff) 256)
  in
  loop 1

(* Chunks a forward queue holds before the producer backs off. *)
let queue_capacity = 64

let profile ?(workers = 4) ?(shadow_slots = 100_000) ?(perfect = false)
    ?(skip = false) ?(queue = Lockfree) ?(chunk_capacity = Chunk.default_capacity)
    ?cancelled (prog : Mil.Ast.program) : result =
  Obs.Span.with_ ~phase:"profile" @@ fun () ->
  Obs.Trace.set_track "producer (main)";
  let w = max 1 workers in
  let shadow_kind =
    if perfect then Engine.Perfect else Engine.Signature (max 1 (shadow_slots / w))
  in
  let channels =
    Array.init w (fun _ ->
        match queue with
        | Lockfree -> Cfree (Spsc_queue.create ~capacity:queue_capacity)
        | Lock_based -> Clocked (Locked_queue.create ~capacity:queue_capacity))
  in
  (* Worker→producer return channels for drained chunks (chunk recycling,
     §2.3.3): sized past the forward queue so a worker's try_push only drops
     a chunk when the producer has stopped recycling (end of run). *)
  let returns =
    Array.init w (fun _ -> Spsc_queue.create ~capacity:(queue_capacity + 4))
  in
  (* The producer pushes loop stacks; the workers' carrier walks read them
     by the ids their chunks carry. *)
  let lstacks = Trace.Intern.Lstack.create () in
  (* Workers started so far, latest first. On any exception before the
     normal stop (a [Domain.spawn] past the runtime's domain limit, the
     program raising, a cancel), [abort] stops and joins exactly these, then
     re-raises: a worker never told to stop spins forever and keeps its
     domain. *)
  let spawned = ref [] in
  let abort e =
    let bt = Printexc.get_raw_backtrace () in
    List.iter
      (fun (i, d) ->
        channel_push channels.(i) Istop;
        try ignore (Domain.join d) with _ -> ())
      !spawned;
    Printexc.raise_with_backtrace e bt
  in
  let domains =
    try
      Array.mapi
        (fun i c ->
          let d =
            Domain.spawn
              (worker_loop c ~returns:returns.(i) ~index:i ~lstacks
                 ~shadow:shadow_kind ~skip)
          in
          spawned := (i, d) :: !spawned;
          d)
        channels
    with e -> abort e
  in
  (* Deepest queue fill level seen at chunk-push time; sampled only when the
     observability layer is on, so the disabled hot path is untouched. *)
  let max_depth = ref 0 in
  (* Producer state *)
  let next_seq = ref 0 in
  let chunk_reuses = ref 0 in
  (* Prefer a recycled chunk from the worker's return channel over a fresh
     allocation. *)
  let fresh_chunk worker =
    incr next_seq;
    match Spsc_queue.try_pop returns.(worker) with
    | Some c ->
        incr chunk_reuses;
        Chunk.set_seq c !next_seq;
        c
    | None -> Chunk.create ~capacity:chunk_capacity ~seq:!next_seq ()
  in
  let open_chunks = Array.init w fresh_chunk in
  (* Counter-track names for per-queue depth samples, allocated up front so
     the traced push path does no formatting. *)
  let depth_tracks = Array.init w (Printf.sprintf "queue.%d.depth") in
  let ship worker c =
    channel_push channels.(worker) (Ichunk c);
    if Obs.is_enabled () then
      max_depth := max !max_depth (channel_depth channels.(worker));
    if Obs.Trace.is_enabled () then
      Obs.Trace.counter depth_tracks.(worker) (channel_depth channels.(worker));
    open_chunks.(worker) <- fresh_chunk worker
  in
  let push_remove worker addr =
    let c = open_chunks.(worker) in
    Chunk.push_remove c addr;
    if Chunk.is_full c then ship worker c
  in
  let petb = Pet.create_builder () in
  let on_access ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
    Pet.feed_access_line petb ~line;
    let worker = addr mod w in
    let c = open_chunks.(worker) in
    Chunk.push_access c ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
      ~locked;
    if Chunk.is_full c then ship worker c
  in
  let emit r =
    Pet.feed_region petb r;
    match r with
    | Event.Dealloc { addrs } ->
        List.iter
          (fun (base, len, _) ->
            for addr = base to base + len - 1 do
              push_remove (addr mod w) addr
            done)
          addrs
    | _ -> ()
  in
  let interp =
    try
      Mil.Interp.run ~lstacks ?cancelled ~emit ~on_access prog
    with e -> abort e
  in
  (* Flush partial chunks and stop the workers. *)
  Array.iteri
    (fun i c ->
      if not (Chunk.is_empty c) then channel_push channels.(i) (Ichunk c);
      channel_push channels.(i) Istop)
    open_chunks;
  let results = Array.map Domain.join domains in
  (* Drain the worker->producer return channels now that the workers are
     gone: the final flush's chunks (and any returned after the producer's
     last pop) are still parked in the SPSC buffers, which would keep them
     reachable until the queues die and leave the recycling accounting
     short — reuses + drained + still-open must equal chunks created, so
     [profiler.chunk.reuses] stays comparable run-over-run. *)
  let chunks_drained = ref 0 in
  Array.iter
    (fun q ->
      let rec drain () =
        match Spsc_queue.try_pop q with
        | Some _ -> incr chunks_drained; drain ()
        | None -> ()
      in
      drain ())
    returns;
  (* Merge thread-local maps into the global map (duplicate-free locally, so
     this is the cheap final step of Fig. 2.2). *)
  let deps = Dep.Set_.create () in
  Array.iter (fun r -> Dep.Set_.union deps r.w_deps) results;
  let pet = Pet.finish petb in
  Pet.attach_deps pet deps;
  let skip_stats =
    Array.fold_left
      (fun acc r -> sum_skip acc r.w_skip)
      { Engine.reads_total = 0; writes_total = 0; reads_skipped = 0;
        writes_skipped = 0; skipped_raw = 0; skipped_war = 0; skipped_waw = 0;
        shadow_update_elided = 0 }
      results
  in
  let r : result =
    { deps;
      pet;
      races = Array.to_list results |> List.concat_map (fun r -> r.w_races);
      accesses = Array.fold_left (fun acc r -> acc + r.w_processed) 0 results;
      per_worker = Array.map (fun r -> r.w_processed) results;
      footprint_words =
        Array.fold_left (fun acc r -> acc + r.w_footprint) 0 results;
      merging_factor = Dep.Set_.merging_factor deps;
      redistributions = 0;
      skip_stats;
      interp }
  in
  if Obs.is_enabled () then begin
    (* Same run-level names as Serial.publish: the registry hands back the
       identical counter instances, keeping serial and parallel comparable. *)
    Serial.publish ~accesses:r.accesses ~deps ~footprint_words:r.footprint_words
      ~merging_factor:r.merging_factor ~lstacks;
    Obs.Counter.add (Obs.counter "profiler.chunk.reuses") !chunk_reuses;
    Obs.Counter.add (Obs.counter "profiler.chunk.drained") !chunks_drained;
    Obs.Gauge.set_int (Obs.gauge "profiler.queue.max_depth") !max_depth;
    Obs.Counter.add
      (Obs.counter "profiler.queue.push_stalls")
      (Array.fold_left (fun acc c -> acc + channel_stalls c) 0 channels);
    Array.iteri
      (fun i (wr : worker_result) ->
        let c name v =
          Obs.Counter.add
            (Obs.counter (Printf.sprintf "profiler.worker.%d.%s" i name))
            v
        in
        c "accesses" wr.w_processed;
        c "chunks" wr.w_chunks;
        c "idle_spins" wr.w_idle_spins)
      results
  end;
  r
