(* The dependence-building engine: Algorithm 2 (signature-based profiling)
   plus the §2.4 optimization that skips repeatedly-executed memory operations
   in loops, variable-lifetime analysis (§2.3.5), and timestamp-based race
   flagging (§2.3.4).

   The engine is shadow-memory agnostic, but not at per-access cost: it is a
   functor ({!Make}) over the {!Sigmem.Shadow.S} signature, so each backend
   gets its own copy of the hot loop with direct calls into the store — no
   per-access dispatch through a record of closures. The [shadow_kind]-driven
   wrapper API at the bottom dispatches once per call on a three-constructor
   variant and keeps every existing caller compiling. One engine instance
   also serves as the per-worker consumer of the parallel profiler.

   The per-access path is (near-)zero-allocation end to end: shadow slots
   live in flat off-heap stores and are decoded into three per-engine
   mutable scratch cells ({!Sigmem.Cell}), and {!Make.feed_fields} accepts
   the access as unboxed int fields, so no [Event.access] record is built
   on the way in. {!Make.feed_fields} and {!Make.feed_dealloc} are the
   engine's whole input. *)

module Event = Trace.Event
module Intern = Trace.Intern
module Cell = Sigmem.Cell

type shadow_kind =
  | Signature of int  (* approximate, fixed slot count *)
  | Perfect           (* exact, open-addressed flat table *)
  | Paged             (* exact, two-level page table *)

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

(* Direct-mapped memo for the carrier computation over interned loop-stack
   ids. Hot loops produce the same (src, snk) id pair for every access of an
   iteration pair, so the parent walk is almost always replaced by one probe.
   Engine-local (single domain), collisions simply overwrite. *)
let memo_size = 4096 (* power of two *)

type carrier_memo = {
  m_src : int array;
  m_snk : int array;
  m_code : int array;
}

let make_memo () =
  { m_src = Array.make memo_size (-1);
    m_snk = Array.make memo_size (-1);
    m_code = Array.make memo_size 0 }

(* Index is masked, so the probes are always in bounds. *)
let memo_probe m ~src ~snk =
  let h = (src * 0x9E3779B1) lxor (snk * 0x85EBCA77) in
  let i = h land (memo_size - 1) in
  if Array.unsafe_get m.m_src i = src && Array.unsafe_get m.m_snk i = snk then
    Array.unsafe_get m.m_code i
  else begin
    let code = Intern.Lstack.carrier_code ~src ~snk in
    Array.unsafe_set m.m_src i src;
    Array.unsafe_set m.m_snk i snk;
    Array.unsafe_set m.m_code i code;
    code
  end

(* Engine state independent of the shadow backend. *)
type common = {
  deps : Dep.Set_.t;
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
}

(* Initial per-op capacity. Deliberately small: op ids are dense interpreter
   assignments, most workloads use well under 128 static memory operations,
   and doubling growth amortizes the rest — while engine construction stays
   cheap enough that short streams (per-worker engines, small programs)
   aren't dominated by setup allocation. *)
let initial_ops = 128

let make_common ~skip ~lifetime =
  { deps = Dep.Set_.create ();
    skip;
    lifetime;
    memo = make_memo ();
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
    lifetime_removals = 0 }

let ensure_op_capacity c op =
  let n = Array.length c.last_addr in
  if op >= n then begin
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
    c.last_addr <- grow c.last_addr no_addr;
    c.last_status_read <- grow c.last_status_read no_op;
    c.last_status_write <- grow c.last_status_write no_op;
    c.last_raw_carrier <- grow c.last_raw_carrier min_int;
    c.last_war_carrier <- grow c.last_war_carrier min_int;
    c.last_waw_carrier <- grow c.last_waw_carrier min_int;
    c.raw_slot <- grow_slots c.raw_slot 2;
    c.war_slot <- grow_slots c.war_slot 2;
    c.waw_slot <- grow_slots c.waw_slot 2;
    c.init_slot <- grow_slots c.init_slot 1
  end

let note_race c ~sink_var ~sink_line (src : Cell.t) =
  let var = Intern.Sym.name sink_var in
  c.races <- (var, src.line, sink_line) :: c.races;
  if Obs.Trace.is_enabled () then Obs.Trace.instant ("race:" ^ var)

(* The monomorphic engine over one shadow backend. *)
module Make (S : Sigmem.Shadow.S) = struct
  type t = {
    shadow : S.t;
    c : common;
    risk : unit -> float;
        (* one closure per engine, not per record: [Dep.Set_.note] evaluates
           it only when a record is new *)
    (* Scratch cells: the current address's decoded last read / last write,
       and the current access being stored. Reused for every access — the
       engine allocates no cell on the hot path. *)
    rcell : Cell.t;
    wcell : Cell.t;
    acell : Cell.t;
  }

  let create ?(skip = false) ?(lifetime = true) ~slots () =
    let shadow = S.create ~slots in
    { shadow; c = make_common ~skip ~lifetime;
      risk = (fun () -> S.fp_risk shadow);
      rcell = Cell.scratch (); wcell = Cell.scratch ();
      acell = Cell.scratch () }

  (* Record the dependence of the current access (sink fields passed
     unboxed) against source cell [src] through the per-op dedup slots: on
     ingredient match, one [incr] on the shared count; otherwise build the
     record once, insert it with first-witness provenance (sink timestamp,
     engine-local access index, profiling domain, current shadow
     false-positive risk), and remember the ingredients. [ccode] is the
     precomputed carrier code (>= -1).

     [arr] holds two ways per op, at [2 op] and [2 op + 1]. One way thrashes
     on the ubiquitous two-source alternation (the first touch of an address
     vs the loop-carried repeat produce different records for the same
     operation, interleaved per address), rebuilding and re-hashing a known
     record on every access; with two ways both sources stay resident. On a
     double miss the first way is demoted and the new record takes its
     place, so a repeating pair always converges to resident. *)
  let slot_matches (slot : dslot) ~src_line ~src_thread ~src_var ~ccode
      ~sink_line ~sink_thread ~racy =
    slot.d_src_line = src_line
    && slot.d_src_thread = src_thread
    && slot.d_var = src_var
    && slot.d_carrier = ccode
    && slot.d_sink_line = sink_line
    && slot.d_sink_thread = sink_thread
    && slot.d_racy = racy

  let record c risk ~sink_line ~sink_thread ~sink_time ~sink_var dtype
      (arr : dslot array) op (src : Cell.t) ~ccode =
    let racy =
      (* Timestamp reversal: the recorded "earlier" access actually executed
         later — atomicity of access and push was violated, exposing a
         potential data race (§2.3.4). *)
      sink_time < src.time
    in
    if racy then note_race c ~sink_var ~sink_line src;
    let w0 = Array.unsafe_get arr (2 * op) in
    if
      slot_matches w0 ~src_line:src.line ~src_thread:src.thread
        ~src_var:src.var ~ccode ~sink_line ~sink_thread ~racy
    then Dep.Set_.hit c.deps w0.d_count
    else begin
      let w1 = Array.unsafe_get arr ((2 * op) + 1) in
      if
        slot_matches w1 ~src_line:src.line ~src_thread:src.thread
          ~src_var:src.var ~ccode ~sink_line ~sink_thread ~racy
      then Dep.Set_.hit c.deps w1.d_count
      else begin
        let d =
          { Dep.sink_line; sink_thread; dtype;
            src_line = src.line; src_thread = src.thread;
            var = Intern.Sym.name src.var;
            carrier = (if ccode >= 0 then Some ccode else None);
            racy }
        in
        let count =
          Dep.Set_.note c.deps d ~time:sink_time ~index:c.n_processed
            ~domain:(Domain.self () :> int) ~risk
        in
        dslot_copy w1 w0;
        w0.d_src_line <- src.line;
        w0.d_src_thread <- src.thread;
        w0.d_var <- src.var;
        w0.d_carrier <- ccode;
        w0.d_sink_line <- sink_line;
        w0.d_sink_thread <- sink_thread;
        w0.d_racy <- racy;
        w0.d_count <- count
      end
    end

  let record_init c risk ~sink_line ~sink_thread ~sink_time (slot : dslot) =
    if
      slot.d_sink_line = sink_line
      && slot.d_sink_thread = sink_thread
      && slot.d_src_line = 0 (* marks a populated INIT slot *)
    then Dep.Set_.hit c.deps slot.d_count
    else begin
      let d = Dep.init_dep ~sink_line ~sink_thread in
      let count =
        Dep.Set_.note c.deps d ~time:sink_time ~index:c.n_processed
          ~domain:(Domain.self () :> int) ~risk
      in
      slot.d_src_line <- 0;
      slot.d_sink_line <- sink_line;
      slot.d_sink_thread <- sink_thread;
      slot.d_count <- count
    end

  (* Algorithm 2 on one dynamic memory instruction, access fields unboxed:
     the zero-allocation entry point, fed straight from the interpreter's
     access sink or from a chunk's packed entries. Each carrier
     code (RAW for reads; WAR and WAW for writes) is computed exactly once
     and reused for the skip check, the dependence record, and the skip
     fingerprint update. *)
  let feed_fields t ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
    let c = t.c in
    c.n_processed <- c.n_processed + 1;
    ensure_op_capacity c op;
    let r = t.rcell and w = t.wcell in
    let h = S.load t.shadow ~addr r w in
    let status_read = if r.Cell.time = 0 then no_op else r.Cell.op in
    let status_write = if w.Cell.time = 0 then no_op else w.Cell.op in
    let a = t.acell in
    a.Cell.line <- line;
    a.Cell.var <- var;
    a.Cell.thread <- thread;
    a.Cell.time <- time;
    a.Cell.op <- op;
    a.Cell.lstack <- lstack;
    a.Cell.locked <- locked;
    (* [ensure_op_capacity] guarantees [op] indexes every per-op array. *)
    let base_skip =
      c.skip
      && Array.unsafe_get c.last_addr op = addr
      && Array.unsafe_get c.last_status_read op = status_read
      && Array.unsafe_get c.last_status_write op = status_write
    in
    match kind with
    | Event.Read ->
        (* Fingerprint of the RAW dependence this read would form against
           the last write: the carrying loop's header line, -1 for an
           intra-iteration dependence, -2 when there is no write at all. *)
        let raw_code =
          if status_write = no_op then -2
          else memo_probe c.memo ~src:w.Cell.lstack ~snk:lstack
        in
        if status_write <> no_op then
          c.sstats.reads_total <- c.sstats.reads_total + 1;
        if base_skip && raw_code = Array.unsafe_get c.last_raw_carrier op
        then begin
          if status_write <> no_op then begin
            c.sstats.reads_skipped <- c.sstats.reads_skipped + 1;
            c.sstats.skipped_raw <- c.sstats.skipped_raw + 1
          end;
          (* §2.4.3 special case: the read slot already holds this very
             operation. The paper elides the shadow update here; our slots
             also carry the loop stack used for carrier attribution, so we
             count the condition but refresh the slot to keep carriers
             exact. *)
          if status_read = op then
            c.sstats.shadow_update_elided <- c.sstats.shadow_update_elided + 1;
          S.store_read t.shadow h a
        end
        else begin
          if status_write <> no_op then
            record c t.risk ~sink_line:line ~sink_thread:thread
              ~sink_time:time ~sink_var:var Dep.Raw c.raw_slot op w
              ~ccode:raw_code;
          S.store_read t.shadow h a;
          (* The fingerprints are only ever read when [skip] is on; with it
             off, skip the five stores too. *)
          if c.skip then begin
            Array.unsafe_set c.last_addr op addr;
            Array.unsafe_set c.last_status_read op status_read;
            Array.unsafe_set c.last_status_write op status_write;
            Array.unsafe_set c.last_raw_carrier op raw_code
          end
        end
    | Event.Write ->
        (* WAW is recorded only for consecutive writes; a read since the
           last write re-orients the pair to WAR+RAW, so the orientation
           must be part of the write-side skip fingerprint. *)
        let waw_applies =
          status_write <> no_op
          && (status_read = no_op || r.Cell.time < w.Cell.time)
        in
        let war_code =
          if status_read = no_op then -2
          else memo_probe c.memo ~src:r.Cell.lstack ~snk:lstack
        in
        let waw_code =
          if not waw_applies then -4
          else memo_probe c.memo ~src:w.Cell.lstack ~snk:lstack
        in
        if status_read <> no_op || waw_applies then
          c.sstats.writes_total <- c.sstats.writes_total + 1;
        if
          base_skip
          && war_code = Array.unsafe_get c.last_war_carrier op
          && waw_code = Array.unsafe_get c.last_waw_carrier op
        then begin
          if status_read <> no_op || waw_applies then begin
            c.sstats.writes_skipped <- c.sstats.writes_skipped + 1;
            if status_read <> no_op then
              c.sstats.skipped_war <- c.sstats.skipped_war + 1;
            if waw_applies then
              c.sstats.skipped_waw <- c.sstats.skipped_waw + 1
          end;
          (* see the read-side comment on the §2.4.3 special case *)
          if status_write = op then
            c.sstats.shadow_update_elided <- c.sstats.shadow_update_elided + 1;
          S.store_write t.shadow h a
        end
        else begin
          if status_read <> no_op then
            record c t.risk ~sink_line:line ~sink_thread:thread
              ~sink_time:time ~sink_var:var Dep.War c.war_slot op r
              ~ccode:war_code;
          if waw_applies then
            record c t.risk ~sink_line:line ~sink_thread:thread
              ~sink_time:time ~sink_var:var Dep.Waw c.waw_slot op w
              ~ccode:waw_code
          else if status_write = no_op then
            record_init c t.risk ~sink_line:line ~sink_thread:thread
              ~sink_time:time c.init_slot.(op);
          S.store_write t.shadow h a;
          (* see the read-side comment: fingerprints are dead when [skip]
             is off *)
          if c.skip then begin
            Array.unsafe_set c.last_addr op addr;
            Array.unsafe_set c.last_status_read op status_read;
            Array.unsafe_set c.last_status_write op status_write;
            Array.unsafe_set c.last_war_carrier op war_code;
            Array.unsafe_set c.last_waw_carrier op waw_code
          end
        end

  (* Variable-lifetime analysis: clear dead address ranges so their slots
     can be reused without manufacturing false dependences. *)
  let feed_dealloc t addrs =
    let c = t.c in
    if c.lifetime then
      List.iter
        (fun (base, len, _var) ->
          for a = base to base + len - 1 do
            S.remove t.shadow ~addr:a
          done;
          c.lifetime_removals <- c.lifetime_removals + len)
        addrs

  (* Resident words attributable to this engine: shadow store + per-op skip
     state + merged dependence table. *)
  let word_footprint t =
    S.word_footprint t.shadow
    + (3 * Array.length t.c.last_addr)
    + (8 * Dep.Set_.cardinal t.c.deps)

  let observe ~prefix t =
    let c name v = Obs.Counter.add (Obs.counter (prefix ^ name)) v in
    let g name v = Obs.Gauge.set_int (Obs.gauge (prefix ^ name)) v in
    let s = t.c.sstats in
    c ".accesses" t.c.n_processed;
    c ".deps" (Dep.Set_.cardinal t.c.deps);
    c ".lifetime.removals" t.c.lifetime_removals;
    c ".skip.reads_total" s.reads_total;
    c ".skip.writes_total" s.writes_total;
    c ".skip.reads_skipped" s.reads_skipped;
    c ".skip.writes_skipped" s.writes_skipped;
    c ".skip.raw" s.skipped_raw;
    c ".skip.war" s.skipped_war;
    c ".skip.waw" s.skipped_waw;
    c ".skip.shadow_update_elided" s.shadow_update_elided;
    g ".shadow.slots_used" (S.slots_used t.shadow);
    g ".shadow.words" (S.word_footprint t.shadow);
    List.iter (fun (k, v) -> g (".shadow." ^ k) v) (S.extra_stats t.shadow)
end

module Esig = Make (Sigmem.Signature)
module Eperfect = Make (Sigmem.Perfect)
module Epaged = Make (Sigmem.Two_level)

(* The shadow_kind-driven wrapper: one three-way dispatch per call, then
   straight into the monomorphic code. *)
type t =
  | Tsig of Esig.t
  | Tperfect of Eperfect.t
  | Tpaged of Epaged.t

let create ?(skip = false) ?(lifetime = true) = function
  | Signature slots -> Tsig (Esig.create ~skip ~lifetime ~slots ())
  | Perfect -> Tperfect (Eperfect.create ~skip ~lifetime ~slots:0 ())
  | Paged -> Tpaged (Epaged.create ~skip ~lifetime ~slots:0 ())

let common = function
  | Tsig e -> e.Esig.c
  | Tperfect e -> e.Eperfect.c
  | Tpaged e -> e.Epaged.c

let feed_fields t ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
  match t with
  | Tsig e ->
      Esig.feed_fields e ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
        ~locked
  | Tperfect e ->
      Eperfect.feed_fields e ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
        ~locked
  | Tpaged e ->
      Epaged.feed_fields e ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
        ~locked

let feed_dealloc t addrs =
  match t with
  | Tsig e -> Esig.feed_dealloc e addrs
  | Tperfect e -> Eperfect.feed_dealloc e addrs
  | Tpaged e -> Epaged.feed_dealloc e addrs

let deps t = (common t).deps
(* Distinct potential races (var, earlier line, later line). *)
let races t = List.sort_uniq compare (common t).races
let skip_stats t = (common t).sstats
let processed t = (common t).n_processed

let word_footprint = function
  | Tsig e -> Esig.word_footprint e
  | Tperfect e -> Eperfect.word_footprint e
  | Tpaged e -> Epaged.word_footprint e

(* Publish this engine's end-of-run statistics into the observability
   registry under [prefix]. Counters accumulate across engines (the parallel
   profiler's workers all observe under their own prefix AND the shared
   aggregate one), gauges record the last observed store shape. No-op when
   observability is disabled. *)
let observe ?(prefix = "engine") t =
  if Obs.is_enabled () then
    match t with
    | Tsig e -> Esig.observe ~prefix e
    | Tperfect e -> Eperfect.observe ~prefix e
    | Tpaged e -> Epaged.observe ~prefix e
