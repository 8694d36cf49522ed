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

(* Mutex-protected queue used only for the lock-based comparison baseline.
   Both sides spin while they wait; they keep the same wait ledger as
   {!Spsc_queue}, with no parks. *)
module Locked_queue = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Mutex.t;
    capacity : int;
    mutable push_waits : int;    (* producer-owned *)
    mutable push_wait_ns : int;
    mutable pop_waits : int;     (* consumer-owned *)
    mutable pop_wait_ns : int;
  }

  let create ~capacity =
    { q = Queue.create (); m = Mutex.create (); capacity; push_waits = 0;
      push_wait_ns = 0; pop_waits = 0; pop_wait_ns = 0 }

  let try_push t x =
    Mutex.protect t.m (fun () ->
        Queue.length t.q < t.capacity && (Queue.push x t.q; true))

  let try_pop t = Mutex.protect t.m (fun () -> Queue.take_opt t.q)

  (* Spin with backoff until [attempt] succeeds; the time spent waiting. *)
  let spin attempt =
    let t0 = Obs.now_ns () in
    let rec go backoff =
      match attempt () with
      | Some x -> x
      | None ->
          for _ = 1 to backoff do
            Domain.cpu_relax ()
          done;
          go (min (2 * backoff) 256)
    in
    let x = go 1 in
    (x, Obs.now_ns () - t0)

  let push t x =
    if not (try_push t x) then begin
      let (), ns = spin (fun () -> if try_push t x then Some () else None) in
      t.push_waits <- t.push_waits + 1;
      t.push_wait_ns <- t.push_wait_ns + ns
    end

  let pop t =
    match try_pop t with
    | Some x -> x
    | None ->
        let x, ns = spin (fun () -> try_pop t) in
        t.pop_waits <- t.pop_waits + 1;
        t.pop_wait_ns <- t.pop_wait_ns + ns;
        x

  let length t = Mutex.protect t.m (fun () -> Queue.length t.q)
end

type channel =
  | Cfree of item Spsc_queue.t
  | Clocked of item Locked_queue.t

let channel_push c x =
  match c with
  | Cfree q -> Spsc_queue.push q x
  | Clocked q -> Locked_queue.push q x

let channel_pop c =
  match c with
  | Cfree q -> Spsc_queue.pop q
  | Clocked q -> Locked_queue.pop q

let channel_depth c =
  match c with
  | Cfree q -> Spsc_queue.length q
  | Clocked q -> Locked_queue.length q

let producer_waits c =
  match c with
  | Cfree q -> Spsc_queue.producer_waits q
  | Clocked q ->
      { Spsc_queue.waits = q.Locked_queue.push_waits;
        wait_ns = q.push_wait_ns; parks = 0 }

let consumer_waits c =
  match c with
  | Cfree q -> Spsc_queue.consumer_waits q
  | Clocked q ->
      { Spsc_queue.waits = q.Locked_queue.pop_waits;
        wait_ns = q.pop_wait_ns; parks = 0 }

type worker_result = {
  w_deps : Dep.Set_.t;
  w_races : (string * int * int) list;
  w_processed : int;
  w_footprint : int;
  w_skip : Engine.skip_stats;
  w_chunks : int;          (* chunks consumed by this worker *)
  w_engine_ns : int;       (* time in the engine; 0 unless [ledger] *)
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

(* [ledger]: time each chunk's pass through the engine (two clock reads per
   chunk, none per access). The wait ledger lives in the queue. *)
let worker_loop (queue : channel) ~(returns : Chunk.t Spsc_queue.t)
    ~index ~lstacks ~shadow ~skip ~ledger () : worker_result =
  (* Name this domain's track on the trace timeline (no-op when tracing is
     off); each worker then appears as its own row in chrome://tracing. *)
  Obs.Trace.set_track (Printf.sprintf "worker %d" index);
  let engine = Engine.create ~skip ~lstacks shadow in
  let access = Engine.feed_fields engine in
  let remove addr = Engine.feed_dealloc engine [ (addr, 1, "") ] in
  let chunks = ref 0 in
  let engine_ns = ref 0 in
  let rec loop () =
    match channel_pop queue with
    | Ichunk chunk ->
        incr chunks;
        let t0 = if ledger then Obs.now_ns () else 0 in
        let consume () = Chunk.iter chunk ~access ~remove in
        if Obs.Trace.is_enabled () then
          Obs.Trace.with_span
            (Printf.sprintf "chunk.%d" (Chunk.seq chunk))
            consume
        else consume ();
        if ledger then engine_ns := !engine_ns + (Obs.now_ns () - t0);
        (* Hand the drained chunk back to the producer for recycling. The
           return channel is SPSC with this worker as producer; when it is
           full the chunk is simply dropped for the GC — never block here. *)
        Chunk.reset chunk;
        ignore (Spsc_queue.try_push returns chunk);
        loop ()
    | Istop ->
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
          w_engine_ns = !engine_ns }
  in
  loop ()

(* Chunks a forward queue holds before the producer waits. *)
let queue_capacity = 64

let minor_gcs () = (Gc.quick_stat ()).Gc.minor_collections

let profile ?(workers = 4) ?(shadow_slots = 100_000) ?(perfect = false)
    ?(skip = false) ?(queue = Lockfree) ?cancelled (prog : Mil.Ast.program) : result =
  Obs.Span.with_ ~phase:"profile" @@ fun () ->
  Obs.Trace.set_track "producer (main)";
  (* The ledger ([profiler.parallel.*]) reads the clock a few times per run,
     on wait paths and, when the registry is on, twice per chunk. *)
  let ledger = Obs.is_enabled () in
  let t_start = Obs.now_ns () in
  let gcs_start = minor_gcs () in
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
     re-raises. The push of [Istop] wakes a worker parked on its empty
     queue; a worker never told to stop would keep its domain forever. *)
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
                 ~shadow:shadow_kind ~skip ~ledger)
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
  let shipped = ref 0 in
  (* Prefer a recycled chunk from the worker's return channel over a fresh
     allocation. *)
  let fresh_chunk worker =
    incr next_seq;
    match Spsc_queue.try_pop returns.(worker) with
    | Some c ->
        incr chunk_reuses;
        Chunk.set_seq c !next_seq;
        c
    | None -> Chunk.create ~seq:!next_seq ()
  in
  (* Each worker's open chunk, its packed entries and the index of its next
     free int. The per-access path writes the entries in place, with no
     call into [Chunk]; only shipping a full chunk does. *)
  let open_chunks = Array.init w fresh_chunk in
  let datas = Array.map Chunk.data open_chunks in
  let fill = Array.make w 0 in
  let stride = Chunk.stride in
  let write_code = Chunk.write_code and locked_code = Chunk.locked_code in
  let remove_code = Chunk.remove_code in
  (* Counter-track names for per-queue depth samples, allocated up front so
     the traced push path does no formatting. *)
  let depth_tracks = Array.init w (Printf.sprintf "queue.%d.depth") in
  let send worker =
    let c = open_chunks.(worker) in
    Chunk.set_length c (fill.(worker) / stride);
    channel_push channels.(worker) (Ichunk c);
    incr shipped
  in
  let ship worker =
    send worker;
    if ledger then max_depth := max !max_depth (channel_depth channels.(worker));
    if Obs.Trace.is_enabled () then
      Obs.Trace.counter depth_tracks.(worker) (channel_depth channels.(worker));
    let c = fresh_chunk worker in
    open_chunks.(worker) <- c;
    datas.(worker) <- Chunk.data c;
    fill.(worker) <- 0
  in
  let push_remove worker addr =
    let d = datas.(worker) and b = fill.(worker) in
    d.(b) <- remove_code;
    d.(b + 1) <- addr;
    let b = b + stride in
    fill.(worker) <- b;
    if b = Array.length d then ship worker
  in
  let petb = Pet.create_builder () in
  let on_access ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
    Pet.feed_access_line petb ~line;
    let worker = addr mod w in
    let d = datas.(worker) and b = fill.(worker) in
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
    let b = b + stride in
    fill.(worker) <- b;
    if b = Array.length d then ship worker
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
  (try ignore (Mil.Interp.run ~lstacks ?cancelled ~emit ~on_access prog)
   with e -> abort e);
  (* Flush partial chunks and stop the workers. *)
  for i = 0 to w - 1 do
    if fill.(i) > 0 then send i;
    channel_push channels.(i) Istop
  done;
  let producer_ns = Obs.now_ns () - t_start in
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
  let t_merge = Obs.now_ns () in
  let deps = Dep.Set_.create () in
  Array.iter (fun r -> Dep.Set_.union deps r.w_deps) results;
  let t_pet = Obs.now_ns () in
  let pet = Pet.finish petb in
  let t_end = Obs.now_ns () in
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
      skip_stats }
  in
  if Obs.is_enabled () then begin
    (* Same run-level names as Serial.publish: the registry hands back the
       identical counter instances, keeping serial and parallel comparable. *)
    Serial.publish ~accesses:r.accesses ~deps ~footprint_words:r.footprint_words
      ~merging_factor:r.merging_factor ~lstacks;
    Obs.Counter.add (Obs.counter "profiler.chunk.reuses") !chunk_reuses;
    Obs.Counter.add (Obs.counter "profiler.chunk.drained") !chunks_drained;
    Obs.Gauge.set_int (Obs.gauge "profiler.queue.max_depth") !max_depth;
    (* The ledger: where the producer's and each worker's time went. *)
    let c name v = Obs.Counter.add (Obs.counter ("profiler.parallel." ^ name)) v in
    let pushes =
      Array.fold_left
        (fun (acc : Spsc_queue.waits) ch ->
          let p = producer_waits ch in
          { Spsc_queue.waits = acc.waits + p.waits;
            wait_ns = acc.wait_ns + p.wait_ns;
            parks = acc.parks + p.parks })
        { Spsc_queue.waits = 0; wait_ns = 0; parks = 0 }
        channels
    in
    c "producer_ns" producer_ns;
    c "push_waits" pushes.waits;
    c "push_wait_ns" pushes.wait_ns;
    c "producer_parks" pushes.parks;
    c "chunks_shipped" !shipped;
    c "merge_ns" (t_pet - t_merge);
    c "pet_finish_ns" (t_end - t_pet);
    c "minor_gcs" (minor_gcs () - gcs_start);
    Array.iteri
      (fun i (wr : worker_result) ->
        let idle = consumer_waits channels.(i) in
        let cw name v = c (Printf.sprintf "worker.%d.%s" i name) v in
        cw "chunks" wr.w_chunks;
        cw "engine_ns" wr.w_engine_ns;
        cw "idle_ns" idle.wait_ns;
        cw "parks" idle.parks;
        Obs.Counter.add
          (Obs.counter (Printf.sprintf "profiler.worker.%d.accesses" i))
          wr.w_processed)
      results
  end;
  r
