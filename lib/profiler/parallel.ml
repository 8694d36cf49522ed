(* The parallel DiscoPoP profiler (§2.3.3, Fig. 2.2).

   The main thread executes the target program (here: the MIL interpreter)
   and acts as producer: it packs memory accesses, as unboxed fields, into
   the open chunk of the worker that owns the address. Each worker has one
   SPSC ring whose slots are the chunk buffers (Spsc_queue): the producer
   fills the tail slot in place and publishes it, the worker reads the head
   slot in place and frees it for the producer to refill. Worker domains run
   the dependence engine over their address shard and store dependences in
   thread-local maps that are merged at the end — duplicate-free, so the
   merge is cheap.

   Addresses are distributed by [addr mod W] (Eq. 2.1), and an address never
   changes owner, so each worker sees every access to its addresses in
   program order and the merged dependences are the serial profiler's. The
   paper also moves the hottest addresses to other workers; that is
   deliberately left out (see DESIGN.md): moving one loses the dependences
   that span the move, and the per-access frequency counting cost more than
   it balanced.

   The lock-based baseline of Fig. 2.9's lock-free-vs-lock-based comparison
   is the same ring with each index read and update under one mutex. *)

module Event = Trace.Event
module Chunk = Trace.Chunk

type queue_kind = Lockfree | Lock_based

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
   chunk, none per access). The wait ledger lives in the ring. *)
let worker_loop ring ~index ~lstacks ~shadow ~skip ~ledger () : worker_result =
  (* Name this domain's track on the trace timeline (no-op when tracing is
     off); each worker then appears as its own row in chrome://tracing. *)
  Obs.Trace.set_track (Printf.sprintf "worker %d" index);
  let engine = Engine.create ~skip ~lstacks shadow in
  let access = Engine.feed_fields engine in
  let remove addr = Engine.feed_dealloc engine [ (addr, 1, "") ] in
  let chunks = ref 0 in
  let engine_ns = ref 0 in
  let rec loop () =
    let chunk = Spsc_queue.next ring in
    if not (Chunk.is_empty chunk) then begin
      incr chunks;
      let t0 = if ledger then Obs.now_ns () else 0 in
      let consume () = Chunk.iter chunk ~access ~remove in
      if Obs.Trace.is_enabled () then
        Obs.Trace.with_span (Printf.sprintf "chunk.%d" !chunks) consume
      else consume ();
      if ledger then engine_ns := !engine_ns + (Obs.now_ns () - t0);
      Spsc_queue.release ring;
      loop ()
    end
    else begin
      (* The stop mark. Per-worker shadow/skip statistics go out under a
         per-worker engine prefix (engine.w0, engine.w1, …): concurrent
         workers must not overwrite each other's shadow gauges under the
         shared default "engine" prefix. Atomic counters make cross-domain
         publishing safe. *)
      Engine.observe ~prefix:(Printf.sprintf "engine.w%d" index) engine;
      { w_deps = Engine.deps engine;
        w_races = Engine.races engine;
        w_processed = Engine.processed engine;
        w_footprint = Engine.word_footprint engine;
        w_skip = Engine.skip_stats engine;
        w_chunks = !chunks;
        w_engine_ns = !engine_ns }
    end
  in
  loop ()

(* Slots, hence buffers, in each worker's ring. *)
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
  let rings =
    Array.init w (fun _ ->
        Spsc_queue.create ~locked:(queue = Lock_based) ~capacity:queue_capacity)
  in
  (* The producer pushes loop stacks; the workers' carrier walks read them
     by the ids their chunks carry. *)
  let lstacks = Trace.Intern.Lstack.create () in
  (* Workers started so far, latest first. On any exception before the
     normal stop (a [Domain.spawn] past the runtime's domain limit, the
     program raising, a cancel), [abort] stops and joins exactly these, then
     re-raises. The stop mark wakes a worker parked on its empty ring; a
     worker never told to stop would keep its domain forever. *)
  let spawned = ref [] in
  let abort e =
    let bt = Printexc.get_raw_backtrace () in
    List.iter
      (fun (i, d) ->
        Spsc_queue.close rings.(i);
        try ignore (Domain.join d) with _ -> ())
      !spawned;
    Printexc.raise_with_backtrace e bt
  in
  let domains =
    try
      Array.mapi
        (fun i ring ->
          let d =
            Domain.spawn
              (worker_loop ring ~index:i ~lstacks ~shadow:shadow_kind ~skip
                 ~ledger)
          in
          spawned := (i, d) :: !spawned;
          d)
        rings
    with e -> abort e
  in
  (* Deepest ring fill level seen at publish time; sampled only when the
     observability layer is on, so the disabled hot path is untouched. *)
  let max_depth = ref 0 in
  let shipped = ref 0 in
  (* Each worker's open slot. Before a worker's first entry it is [closed],
     a shared chunk with no room, so a worker given no entry allocates no
     buffer. A [ref] each: the compiler reads an array of them without the
     float-array check an array of the abstract [Chunk.t] would need. *)
  let closed = Chunk.create ~capacity:0 () in
  let open_slots = Array.init w (fun _ -> ref closed) in
  (* Counter-track names for per-ring depth samples, allocated up front so
     the traced publish path does no formatting. *)
  let depth_tracks = Array.init w (Printf.sprintf "queue.%d.depth") in
  let ship worker =
    let ring = rings.(worker) in
    Spsc_queue.push ring;
    incr shipped;
    if ledger then max_depth := max !max_depth (Spsc_queue.length ring);
    if Obs.Trace.is_enabled () then
      Obs.Trace.counter depth_tracks.(worker) (Spsc_queue.length ring)
  in
  (* The open slot of [worker], with room for one more entry: a full slot,
     if any, is published first and the next one opened. *)
  let[@inline] room worker =
    let open_slot = open_slots.(worker) in
    let c = !open_slot in
    if not (Chunk.is_full c) then c
    else begin
      if not (Chunk.is_empty c) then ship worker;
      let c = Spsc_queue.slot rings.(worker) in
      open_slot := c;
      c
    end
  in
  let petb = Pet.create_builder () in
  let on_access ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
    Pet.feed_access_line petb ~line;
    Chunk.push_access (room (addr mod w)) ~kind ~addr ~var ~line ~thread ~time
      ~op ~lstack ~locked
  in
  let emit r =
    Pet.feed_region petb r;
    match r with
    | Event.Dealloc { addrs } ->
        List.iter
          (fun (base, len, _) ->
            for addr = base to base + len - 1 do
              Chunk.push_remove (room (addr mod w)) addr
            done)
          addrs
    | _ -> ()
  in
  (try ignore (Mil.Interp.run ~lstacks ?cancelled ~emit ~on_access prog)
   with e -> abort e);
  (* Publish the open slots, then the stop marks. *)
  for i = 0 to w - 1 do
    if not (Chunk.is_empty !(open_slots.(i))) then ship i;
    Spsc_queue.close rings.(i)
  done;
  let producer_ns = Obs.now_ns () - t_start in
  let results = Array.map Domain.join domains in
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
    Obs.Counter.add (Obs.counter "profiler.chunk.buffers")
      (Array.fold_left (fun acc q -> acc + Spsc_queue.buffers q) 0 rings);
    Obs.Gauge.set_int (Obs.gauge "profiler.queue.max_depth") !max_depth;
    (* The ledger: where the producer's and each worker's time went. *)
    let c name v = Obs.Counter.add (Obs.counter ("profiler.parallel." ^ name)) v in
    let pushes =
      Array.fold_left
        (fun (acc : Spsc_queue.waits) ch ->
          let p = Spsc_queue.producer_waits ch in
          { Spsc_queue.waits = acc.waits + p.waits;
            wait_ns = acc.wait_ns + p.wait_ns;
            parks = acc.parks + p.parks })
        { Spsc_queue.waits = 0; wait_ns = 0; parks = 0 }
        rings
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
        let idle = Spsc_queue.consumer_waits rings.(i) in
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
