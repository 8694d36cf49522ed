(* The dependence-building engine: Algorithm 2 (signature-based profiling)
   plus the §2.4 optimization that skips repeatedly-executed memory operations
   in loops, variable-lifetime analysis (§2.3.5), and timestamp-based race
   flagging (§2.3.4). One engine instance also serves as the per-worker
   consumer of the parallel profiler.

   The per-access path ({!feed_fields}) resolves the address to the base of
   its (read, write) slot pair in a flat off-heap {!Sigmem.Store} through
   the shadow backend: a call into the signature's hash, or the perfect
   table's in-range check, which is inlined and calls out only to grow.
   The engine then reads the source slots' time, op, loop stack, line,
   variable and thread in place, writes the current access straight from
   its own arguments, and bumps merged records' counts, all through
   [[@inline]] accessors of the module that owns each layout ([Store],
   [Signature.count_store], [Dep.Set_.bump]). Only the rare cases make a
   call: a carrier-memo miss walks the loop stacks, and a record the dedup
   slots do not hold goes into [Dep.Set_]. The backend is picked by one
   match on a two-constructor variant per access, which is a jump, not a
   call; a functor over the backend would be compiled once with every
   backend call indirect, since the compiler has no flambda.

   The path is zero-allocation: slots are read and written in place, and
   the access arrives as the unboxed fields of an [Event.access_sink] call,
   so nothing is built on the way in. {!feed_fields} and {!feed_dealloc}
   are the engine's whole input. *)

module Event = Trace.Event
module Intern = Trace.Intern
module Store = Sigmem.Store

type shadow_kind =
  | Signature of int  (* approximate, fixed slot count *)
  | Perfect           (* exact, address-indexed flat table *)

(* Counters for Table 2.7 / Fig 2.13: skipped instructions, classified by the
   dependence type they would have created. *)
type skip_stats = {
  mutable reads_total : int;      (* reads that lead to a dependence *)
  mutable writes_total : int;
  mutable reads_skipped : int;
  mutable writes_skipped : int;
  mutable skipped_raw : int;
  mutable skipped_war : int;
  mutable skipped_waw : int;
  mutable shadow_update_elided : int;  (* §2.4.3 special case *)
}

(* Duplicate-suppression slot (the paper's "dependence merging", made O(1)):
   per static memory operation and dependence type, the ingredients of a
   recently built record plus the occurrence count cell it lives under in
   [Dep.Set_]. When the current access would rebuild a field-for-field
   identical record, we bump the shared count instead of allocating the
   record and re-hashing its variable name. [d_src_line = min_int] marks an
   empty slot.

   Slots are kept two ways deep per (operation, dependence type): real
   streams routinely alternate between two sources for one operation (the
   first touch of an address vs the loop-carried repeat), and a single slot
   thrashes on exactly that pattern. See [record]. *)
type dslot = {
  mutable d_src_line : int;
  mutable d_src_thread : int;
  mutable d_var : int;              (* source variable symbol *)
  mutable d_carrier : int;          (* carrier code: line / -1 *)
  mutable d_sink_line : int;
  mutable d_sink_thread : int;
  mutable d_racy : bool;
  mutable d_count : int ref;        (* the count cell inside Dep.Set_ *)
}

let fresh_dslot () =
  { d_src_line = min_int; d_src_thread = 0; d_var = -1; d_carrier = 0;
    d_sink_line = 0; d_sink_thread = 0; d_racy = false; d_count = ref 0 }

(* Overwrite [dst]'s ingredients with [src]'s (two-way eviction). All fields
   are immediates except the count ref, so this is barrier-free but for one
   pointer store. *)
let dslot_copy (dst : dslot) (src : dslot) =
  dst.d_src_line <- src.d_src_line;
  dst.d_src_thread <- src.d_src_thread;
  dst.d_var <- src.d_var;
  dst.d_carrier <- src.d_carrier;
  dst.d_sink_line <- src.d_sink_line;
  dst.d_sink_thread <- src.d_sink_thread;
  dst.d_racy <- src.d_racy;
  dst.d_count <- src.d_count

let no_op = -1
let no_addr = min_int

(* Direct-mapped memo for the carrier computation over the run's loop-stack
   ids. Hot loops produce the same (src, snk) id pair for every access of an
   iteration pair, so the parent walk is almost always replaced by one probe.
   Engine-local (single domain), collisions simply overwrite. *)
let memo_size = 4096 (* power of two *)

type carrier_memo = {
  lstacks : Intern.Lstack.t;  (* the run's loop-stack table *)
  m_src : int array;
  m_snk : int array;
  m_code : int array;
}

let make_memo lstacks =
  { lstacks;
    m_src = Array.make memo_size (-1);
    m_snk = Array.make memo_size (-1);
    m_code = Array.make memo_size 0 }

(* Index is masked, so the probes are always in bounds. Inlined: it runs
   once or twice per access, and a miss is the only call it makes. Equal
   stacks are never carried, and answered before hashing: they would
   otherwise miss whenever the pair's slot holds another pair. *)
let[@inline] memo_probe m ~src ~snk =
  if src = snk then -1
  else
    let h = (src * 0x9E3779B1) lxor (snk * 0x85EBCA77) in
    let i = h land (memo_size - 1) in
    if Array.unsafe_get m.m_src i = src && Array.unsafe_get m.m_snk i = snk
    then Array.unsafe_get m.m_code i
    else begin
      let code = Intern.Lstack.carrier_code m.lstacks ~src ~snk in
      Array.unsafe_set m.m_src i src;
      Array.unsafe_set m.m_snk i snk;
      Array.unsafe_set m.m_code i code;
      code
    end

type shadow =
  | Sig of Sigmem.Signature.t
  | Perf of Sigmem.Perfect.t

type t = {
  shadow : shadow;
  deps : Dep.Set_.t;
  risk : unit -> float;
      (* one closure per engine, not per record: [Dep.Set_.note] evaluates
         it only when a record is new *)
  skip : bool;
  lifetime : bool;  (* variable-lifetime analysis (§2.3.5); off for ablation *)
  memo : carrier_memo;
  (* §2.4 per-memory-operation state, grown on demand. Beyond the paper's
     lastAddr/lastStatusRead/lastStatusWrite we also fingerprint the carrying
     loop of the dependence the instruction would create: our dependence
     records carry a per-loop carrier attribute, so two instances of the same
     operation with identical shadow status can still produce *distinct*
     records at loop boundaries (inner-carried vs outer-carried). *)
  mutable last_addr : int array;
  mutable last_status_read : int array;
  mutable last_status_write : int array;
  mutable last_raw_carrier : int array;   (* reads: would-be RAW carrier *)
  mutable last_war_carrier : int array;   (* writes: would-be WAR carrier *)
  mutable last_waw_carrier : int array;   (* writes: would-be WAW carrier *)
  mutable raw_slot : dslot array;         (* per-op dedup, two ways per op *)
  mutable war_slot : dslot array;
  mutable waw_slot : dslot array;
  mutable init_slot : dslot array;        (* one way per op *)
  sstats : skip_stats;
  mutable races : (string * int * int) list;  (* var, line-a, line-b *)
  mutable n_processed : int;
  mutable lifetime_removals : int;
  mutable dedup_misses : int;  (* records neither dedup way held *)
}

(* Initial per-op capacity. Deliberately small: op ids are dense interpreter
   assignments, most workloads use well under 128 static memory operations,
   and doubling growth amortizes the rest — while engine construction stays
   cheap enough that short streams (per-worker engines, small programs)
   aren't dominated by setup allocation. *)
let initial_ops = 128

let create ?(skip = false) ?(lifetime = true) ~lstacks kind =
  let shadow, risk =
    match kind with
    | Signature slots ->
        let s = Sigmem.Signature.create ~slots in
        (Sig s, fun () -> Sigmem.Signature.collision_risk s)
    | Perfect -> (Perf (Sigmem.Perfect.create ()), fun () -> 0.0)
  in
  { shadow;
    deps = Dep.Set_.create ();
    risk;
    skip;
    lifetime;
    memo = make_memo lstacks;
    last_addr = Array.make initial_ops no_addr;
    last_status_read = Array.make initial_ops no_op;
    last_status_write = Array.make initial_ops no_op;
    last_raw_carrier = Array.make initial_ops min_int;
    last_war_carrier = Array.make initial_ops min_int;
    last_waw_carrier = Array.make initial_ops min_int;
    raw_slot = Array.init (2 * initial_ops) (fun _ -> fresh_dslot ());
    war_slot = Array.init (2 * initial_ops) (fun _ -> fresh_dslot ());
    waw_slot = Array.init (2 * initial_ops) (fun _ -> fresh_dslot ());
    init_slot = Array.init initial_ops (fun _ -> fresh_dslot ());
    sstats =
      { reads_total = 0; writes_total = 0; reads_skipped = 0;
        writes_skipped = 0; skipped_raw = 0; skipped_war = 0; skipped_waw = 0;
        shadow_update_elided = 0 };
    races = [];
    n_processed = 0;
    lifetime_removals = 0;
    dedup_misses = 0 }

(* Make [op] index every per-op array; the caller checks the bound. *)
let grow_ops t op =
  let n = Array.length t.last_addr in
  let n' = max (2 * n) (op + 1) in
  let grow arr fill =
    let a = Array.make n' fill in
    Array.blit arr 0 a 0 n;
    a
  in
  let grow_slots arr width =
    let m = width * n in
    Array.init (width * n') (fun i -> if i < m then arr.(i) else fresh_dslot ())
  in
  t.last_addr <- grow t.last_addr no_addr;
  t.last_status_read <- grow t.last_status_read no_op;
  t.last_status_write <- grow t.last_status_write no_op;
  t.last_raw_carrier <- grow t.last_raw_carrier min_int;
  t.last_war_carrier <- grow t.last_war_carrier min_int;
  t.last_waw_carrier <- grow t.last_waw_carrier min_int;
  t.raw_slot <- grow_slots t.raw_slot 2;
  t.war_slot <- grow_slots t.war_slot 2;
  t.waw_slot <- grow_slots t.waw_slot 2;
  t.init_slot <- grow_slots t.init_slot 1

let note_race t ~sink_var ~sink_line ~src_line =
  let var = Intern.Sym.name sink_var in
  t.races <- (var, src_line, sink_line) :: t.races;
  if Obs.Trace.is_enabled () then Obs.Trace.instant ("race:" ^ var)

(* One more occurrence of the record behind [slot]. *)
let[@inline] hit t (slot : dslot) = Dep.Set_.bump t.deps slot.d_count

(* Record the dependence of the current access (sink fields passed unboxed)
   against the source slot at [sb] in [st] through the per-op dedup slots:
   on ingredient match, one increment of the shared count; otherwise build
   the record once, insert it with first-witness provenance (sink
   timestamp, engine-local access index, profiling domain, current shadow
   false-positive risk), and remember the ingredients. [ccode] is the
   precomputed carrier code (>= -1).

   [arr] holds two ways per op, at [2 op] and [2 op + 1]. One way thrashes
   on the ubiquitous two-source alternation (the first touch of an address
   vs the loop-carried repeat produce different records for the same
   operation, interleaved per address), rebuilding and re-hashing a known
   record on every access; with two ways both sources stay resident. On a
   double miss the first way is demoted and the new record takes its place,
   so a repeating pair always converges to resident. *)
let[@inline] slot_matches (slot : dslot) ~src_line ~src_thread ~src_var ~ccode
    ~sink_line ~sink_thread ~racy =
  slot.d_src_line = src_line
  && slot.d_src_thread = src_thread
  && slot.d_var = src_var
  && slot.d_carrier = ccode
  && slot.d_sink_line = sink_line
  && slot.d_sink_thread = sink_thread
  && slot.d_racy = racy

(* A record the two ways of [w0]/[w1] do not hold: build it, insert it into
   [deps] with its first witness, demote [w0] to [w1] and remember it in
   [w0]. Out of line: this runs once per distinct record and eviction. *)
let note_new t ~sink_line ~sink_thread ~sink_time dtype ~src_line ~src_thread
    ~src_var ~ccode ~racy (w0 : dslot) (w1 : dslot) =
  t.dedup_misses <- t.dedup_misses + 1;
  let d =
    { Dep.sink_line; sink_thread; dtype; src_line; src_thread;
      var = Intern.Sym.name src_var;
      carrier = (if ccode >= 0 then Some ccode else None);
      racy }
  in
  let count =
    Dep.Set_.note t.deps d ~time:sink_time ~index:t.n_processed
      ~domain:(Domain.self () :> int) ~risk:t.risk
  in
  dslot_copy w1 w0;
  w0.d_src_line <- src_line;
  w0.d_src_thread <- src_thread;
  w0.d_var <- src_var;
  w0.d_carrier <- ccode;
  w0.d_sink_line <- sink_line;
  w0.d_sink_thread <- sink_thread;
  w0.d_racy <- racy;
  w0.d_count <- count

(* Inlined into each of its three uses: the way probes are the common
   case. *)
let[@inline] record t ~sink_line ~sink_thread ~sink_time ~sink_var dtype
    (arr : dslot array) op (st : Store.t) sb ~ccode =
  let src_line = Store.line st sb in
  let src_thread = Store.thread st sb in
  let src_var = Store.var st sb in
  let racy =
    (* Timestamp reversal: the recorded "earlier" access actually executed
       later — atomicity of access and push was violated, exposing a
       potential data race (§2.3.4). *)
    sink_time < Store.time st sb
  in
  if racy then note_race t ~sink_var ~sink_line ~src_line;
  let w0 = Array.unsafe_get arr (2 * op) in
  if
    slot_matches w0 ~src_line ~src_thread ~src_var ~ccode ~sink_line
      ~sink_thread ~racy
  then hit t w0
  else begin
    let w1 = Array.unsafe_get arr ((2 * op) + 1) in
    if
      slot_matches w1 ~src_line ~src_thread ~src_var ~ccode ~sink_line
        ~sink_thread ~racy
    then hit t w1
    else
      note_new t ~sink_line ~sink_thread ~sink_time dtype ~src_line
        ~src_thread ~src_var ~ccode ~racy w0 w1
  end

let note_init t ~sink_line ~sink_thread ~sink_time (slot : dslot) =
  let d = Dep.init_dep ~sink_line ~sink_thread in
  let count =
    Dep.Set_.note t.deps d ~time:sink_time ~index:t.n_processed
      ~domain:(Domain.self () :> int) ~risk:t.risk
  in
  slot.d_src_line <- 0;
  slot.d_sink_line <- sink_line;
  slot.d_sink_thread <- sink_thread;
  slot.d_count <- count

let[@inline] record_init t ~sink_line ~sink_thread ~sink_time (slot : dslot) =
  if
    slot.d_sink_line = sink_line
    && slot.d_sink_thread = sink_thread
    && slot.d_src_line = 0 (* marks a populated INIT slot *)
  then hit t slot
  else note_init t ~sink_line ~sink_thread ~sink_time slot

(* Algorithm 2 on one dynamic memory instruction, access fields unboxed:
   the zero-allocation entry point, fed straight from the interpreter's
   access sink or from a chunk's packed entries. Each carrier code (RAW for
   reads; WAR and WAW for writes) is computed exactly once and reused for
   the skip check, the dependence record, and the skip fingerprint
   update. *)
let feed_fields t ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
  (* Address -> pair base [rb] in the backend's current store [st].
     Resolution comes first, so an access it rejects leaves the engine as
     it was. *)
  let rb =
    match t.shadow with
    | Sig s -> Sigmem.Signature.resolve s addr
    | Perf p -> Sigmem.Perfect.resolve p addr
  in
  t.n_processed <- t.n_processed + 1;
  if op >= Array.length t.last_addr then grow_ops t op;
  let st =
    match t.shadow with
    | Sig s -> s.Sigmem.Signature.store
    | Perf p -> p.Sigmem.Perfect.data
  in
  let wb = Store.write_slot rb in
  let r_time = Store.time st rb and w_time = Store.time st wb in
  let status_read = if r_time = 0 then no_op else Store.op st rb in
  let status_write = if w_time = 0 then no_op else Store.op st wb in
  (* [grow_ops] guarantees [op] indexes every per-op array. *)
  let base_skip =
    t.skip
    && Array.unsafe_get t.last_addr op = addr
    && Array.unsafe_get t.last_status_read op = status_read
    && Array.unsafe_get t.last_status_write op = status_write
  in
  (* The current access's slot: read or write slot of the pair. *)
  let ab = match kind with Event.Read -> rb | Event.Write -> wb in
  (match kind with
  | Event.Read ->
      (* Fingerprint of the RAW dependence this read would form against
         the last write: the carrying loop's header line, -1 for an
         intra-iteration dependence, -2 when there is no write at all. *)
      let raw_code =
        if status_write = no_op then -2
        else memo_probe t.memo ~src:(Store.lstack st wb) ~snk:lstack
      in
      if status_write <> no_op then
        t.sstats.reads_total <- t.sstats.reads_total + 1;
      if base_skip && raw_code = Array.unsafe_get t.last_raw_carrier op then begin
        if status_write <> no_op then begin
          t.sstats.reads_skipped <- t.sstats.reads_skipped + 1;
          t.sstats.skipped_raw <- t.sstats.skipped_raw + 1
        end;
        (* §2.4.3 special case: the read slot already holds this very
           operation. The paper elides the shadow update here; our slots
           also carry the loop stack used for carrier attribution, so we
           count the condition but refresh the slot to keep carriers
           exact. *)
        if status_read = op then
          t.sstats.shadow_update_elided <- t.sstats.shadow_update_elided + 1
      end
      else begin
        if status_write <> no_op then
          record t ~sink_line:line ~sink_thread:thread ~sink_time:time
            ~sink_var:var Dep.Raw t.raw_slot op st wb ~ccode:raw_code;
        (* The fingerprints are only ever read when [skip] is on; with it
           off, skip the five stores too. *)
        if t.skip then begin
          Array.unsafe_set t.last_addr op addr;
          Array.unsafe_set t.last_status_read op status_read;
          Array.unsafe_set t.last_status_write op status_write;
          Array.unsafe_set t.last_raw_carrier op raw_code
        end
      end
  | Event.Write ->
      (* WAW is recorded only for consecutive writes; a read since the last
         write re-orients the pair to WAR+RAW, so the orientation must be
         part of the write-side skip fingerprint. *)
      let waw_applies =
        status_write <> no_op && (status_read = no_op || r_time < w_time)
      in
      let war_code =
        if status_read = no_op then -2
        else memo_probe t.memo ~src:(Store.lstack st rb) ~snk:lstack
      in
      let waw_code =
        if not waw_applies then -4
        else memo_probe t.memo ~src:(Store.lstack st wb) ~snk:lstack
      in
      if status_read <> no_op || waw_applies then
        t.sstats.writes_total <- t.sstats.writes_total + 1;
      if
        base_skip
        && war_code = Array.unsafe_get t.last_war_carrier op
        && waw_code = Array.unsafe_get t.last_waw_carrier op
      then begin
        if status_read <> no_op || waw_applies then begin
          t.sstats.writes_skipped <- t.sstats.writes_skipped + 1;
          if status_read <> no_op then
            t.sstats.skipped_war <- t.sstats.skipped_war + 1;
          if waw_applies then
            t.sstats.skipped_waw <- t.sstats.skipped_waw + 1
        end;
        (* see the read-side comment on the §2.4.3 special case *)
        if status_write = op then
          t.sstats.shadow_update_elided <- t.sstats.shadow_update_elided + 1
      end
      else begin
        if status_read <> no_op then
          record t ~sink_line:line ~sink_thread:thread ~sink_time:time
            ~sink_var:var Dep.War t.war_slot op st rb ~ccode:war_code;
        if waw_applies then
          record t ~sink_line:line ~sink_thread:thread ~sink_time:time
            ~sink_var:var Dep.Waw t.waw_slot op st wb ~ccode:waw_code
        else if status_write = no_op then
          record_init t ~sink_line:line ~sink_thread:thread ~sink_time:time
            t.init_slot.(op);
        (* see the read-side comment: fingerprints are dead when [skip] is
           off *)
        if t.skip then begin
          Array.unsafe_set t.last_addr op addr;
          Array.unsafe_set t.last_status_read op status_read;
          Array.unsafe_set t.last_status_write op status_write;
          Array.unsafe_set t.last_war_carrier op war_code;
          Array.unsafe_set t.last_waw_carrier op waw_code
        end
      end);
  (* Store the current access, after its dependences are recorded. *)
  (match t.shadow with
  | Sig s -> Sigmem.Signature.count_store s ab ~var
  | Perf _ -> ());
  Store.set st ab ~time ~locked ~line ~var ~thread ~op ~lstack

(* Variable-lifetime analysis: clear dead [(base, len, var)] ranges so their
   slots can be reused without manufacturing false dependences. *)
let feed_dealloc t addrs =
  if t.lifetime then
    List.iter
      (fun (base, len, _var) ->
        for addr = base to base + len - 1 do
          match t.shadow with
          | Sig s -> Sigmem.Signature.remove s ~addr
          | Perf p -> Sigmem.Perfect.remove p ~addr
        done;
        t.lifetime_removals <- t.lifetime_removals + len)
      addrs

let deps t = t.deps
(* Distinct potential races (var, earlier line, later line). *)
let races t = List.sort_uniq compare t.races
let skip_stats t = t.sstats
let processed t = t.n_processed

let shadow_words t =
  match t.shadow with
  | Sig s -> Sigmem.Signature.word_footprint s
  | Perf p -> Sigmem.Perfect.word_footprint p

(* Words per op of the per-op state: six fingerprint ints, and seven dedup
   slots (two ways each for RAW, WAR and WAW, one for INIT), each an array
   element pointing at a [dslot] record (8 fields + header) with its own
   count cell (a ref: 1 field + header). *)
let words_per_op = 6 + (7 * (1 + 9 + 2))

(* Resident words attributable to this engine: the shadow store, the per-op
   state with its ten array headers, the carrier memo (three arrays), and
   the merged dependence table. *)
let word_footprint t =
  shadow_words t
  + (words_per_op * Array.length t.last_addr) + 10
  + (3 * (memo_size + 1))
  + (8 * Dep.Set_.cardinal t.deps)

(* Publish this engine's end-of-run statistics into the observability
   registry under [prefix]. Counters accumulate across engines (the parallel
   profiler's workers all observe under their own prefix AND the shared
   aggregate one), gauges record the last observed store shape. No-op when
   observability is disabled. *)
let observe ?(prefix = "engine") t =
  if Obs.is_enabled () then begin
    let c name v = Obs.Counter.add (Obs.counter (prefix ^ name)) v in
    let g name v = Obs.Gauge.set_int (Obs.gauge (prefix ^ name)) v in
    let s = t.sstats in
    c ".accesses" t.n_processed;
    c ".deps" (Dep.Set_.cardinal t.deps);
    c ".lifetime.removals" t.lifetime_removals;
    c ".dedup.misses" t.dedup_misses;
    c ".skip.reads_total" s.reads_total;
    c ".skip.writes_total" s.writes_total;
    c ".skip.reads_skipped" s.reads_skipped;
    c ".skip.writes_skipped" s.writes_skipped;
    c ".skip.raw" s.skipped_raw;
    c ".skip.war" s.skipped_war;
    c ".skip.waw" s.skipped_waw;
    c ".skip.shadow_update_elided" s.shadow_update_elided;
    let used, extra =
      match t.shadow with
      | Sig s -> Sigmem.Signature.(slots_used s, extra_stats s)
      | Perf p -> Sigmem.Perfect.(slots_used p, extra_stats p)
    in
    g ".shadow.slots_used" used;
    g ".shadow.words" (shadow_words t);
    List.iter (fun (k, v) -> g (".shadow." ^ k) v) extra
  end
