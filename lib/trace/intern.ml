(* Interning for the profiler hot path.

   Every dynamic memory access used to carry a [string] variable name and a
   [frame list] loop stack; at millions of accesses per run the copies and
   the per-dependence stack zips dominated profiling cost. Instead, variable
   names are interned to int symbols ({!Sym}), rendered back to strings only
   at reporting boundaries, and loop stacks are ids into a table that lives
   for one run ({!Lstack}): pushing a frame is one append per loop iteration
   (not per access), and the carrier computation of {!Event.carrier} is an
   allocation-free parent walk over int arrays. *)

(* Process-global and mutex-guarded: the batch driver and the serve daemon
   lower programs in concurrent domains. Names are interned when a program
   is lowered, never per access. *)
module Sym = struct
  type store = { names : string array }

  let lock = Mutex.create ()
  let store = Atomic.make { names = Array.make 64 "" }
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 256
  let next = ref 0

  let intern_locked s =
    match Hashtbl.find_opt tbl s with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        let cur = Atomic.get store in
        if id >= Array.length cur.names then begin
          let names = Array.make (2 * Array.length cur.names) "" in
          Array.blit cur.names 0 names 0 (Array.length cur.names);
          Atomic.set store { names }
        end;
        (Atomic.get store).names.(id) <- s;
        Hashtbl.replace tbl s id;
        id

  let intern (s : string) : int = Mutex.protect lock (fun () -> intern_locked s)

  (* The returned string is physically the one passed to [intern], so
     consumers resolving the same symbol twice get [==]-equal strings. *)
  let name (id : int) : string = (Atomic.get store).names.(id)
end

module Lstack = struct
  (* Why appending is enough. A table serves one run, in which the
     interpreter numbers loop instances afresh ([inst]) and pushes each
     iteration of an instance once, onto the instance's fixed outer stack.
     So no two pushes of a run carry the same (parent, line, inst, iter):
     a hash-consing memo would never hit, and distinct ids are distinct
     stacks anyway.

     Layout. Nodes live in fixed-size blocks of [block_nodes] nodes, each
     node [width] adjacent ints, so the carrier walk reads one cache line
     per node. Node [id] sits in block [id lsr block_bits] at
     [width * (id land block_mask)]. A block, once allocated, never moves
     and is never copied: growing the table allocates one more block, and
     only the block directory (one pointer per block) is ever copied.

     Concurrency. Only the producer (the interpreter's domain) pushes.
     Parallel-profiler workers read nodes by ids they received through the
     SPSC queues, whose push/pop is the happens-before edge publishing every
     node an id refers to, and the directory entry of its block, both
     written before the id was pushed. A directory that fills up is copied
     into one twice as long and swapped in with [Atomic.set] after the
     copy, so a reader never sees a directory whose prefix is not fully
     initialised. *)

  let block_bits = 10
  let block_nodes = 1 lsl block_bits
  let block_mask = block_nodes - 1

  (* Node fields: parent stack id, loop header line, dynamic loop-instance
     id, iteration number, and depth (0 for the empty stack). *)
  let width = 5
  let f_parent = 0
  let f_line = 1
  let f_inst = 2
  let f_iter = 3
  let f_depth = 4

  (* The producer's write cursor, kept off every cache line a worker reads.
     [push] writes [next] once per loop iteration, and a parallel-profiler
     worker reads [dir] on every carrier-memo miss, which every new
     iteration causes. In one record the two shared a 64-byte line, so each
     push invalidated the worker's copy of [dir] (false sharing). OCaml 5.1
     has no [Atomic.make_contended], so the cursor is padded by hand: seven
     unused words on each side of its two fields fill every cache line the
     fields can sit on, wherever the allocator places the record. *)
  type cursor = {
    _p0 : int; _p1 : int; _p2 : int; _p3 : int; _p4 : int; _p5 : int;
    _p6 : int;
    mutable block : int array;  (* the block [next - 1] sits in *)
    mutable next : int;
    _q0 : int; _q1 : int; _q2 : int; _q3 : int; _q4 : int; _q5 : int;
    _q6 : int;
  }

  type t = {
    dir : int array array Atomic.t;  (* block directory; [[||]] unallocated *)
    cur : cursor;                    (* written by the producer only *)
  }

  (* A block is [width * block_nodes] = 5120 words: past 256 words, it is
     allocated directly in the major heap, where a table that lives for the
     whole run belongs, so the profiler's minor allocation per access stays
     as it was. Id 0, the empty stack, is preallocated as all-zero. *)
  let new_block () = Array.make (width * block_nodes) 0

  let create () =
    let b = new_block () in
    let dir = Array.make 8 [||] in
    dir.(0) <- b;
    { dir = Atomic.make dir;
      cur =
        { _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0; _p5 = 0; _p6 = 0;
          block = b; next = 1;
          _q0 = 0; _q1 = 0; _q2 = 0; _q3 = 0; _q4 = 0; _q5 = 0; _q6 = 0 } }

  let empty = 0

  (* The node fields of [id] in directory [d] start at [base id] of its
     block [blk d id]. *)
  let[@inline] blk (d : int array array) id = d.(id lsr block_bits)
  let[@inline] base id = width * (id land block_mask)
  let[@inline] field d id f = (blk d id).(base id + f)

  (* Start block [bi]: the producer writes its directory entry before any
     of its ids is published. Out of line: it runs once per
     [block_nodes] pushes. *)
  let add_block t bi =
    let b = new_block () in
    let d = Atomic.get t.dir in
    if bi < Array.length d then d.(bi) <- b
    else begin
      let d' = Array.make (2 * Array.length d) [||] in
      Array.blit d 0 d' 0 (Array.length d);
      d'.(bi) <- b;
      Atomic.set t.dir d'
    end;
    t.cur.block <- b

  let push t ~parent ~loop_line ~inst ~iter : int =
    let c = t.cur in
    let id = c.next in
    c.next <- id + 1;
    if id land block_mask = 0 then add_block t (id lsr block_bits);
    let depth = field (Atomic.get t.dir) parent f_depth + 1 in
    let b = c.block and o = base id in
    b.(o + f_parent) <- parent;
    b.(o + f_line) <- loop_line;
    b.(o + f_inst) <- inst;
    b.(o + f_iter) <- iter;
    b.(o + f_depth) <- depth;
    id

  let depth t id = field (Atomic.get t.dir) id f_depth

  (* Carrier of a dependence between loop stacks [src] and [snk], as a code:
     the carrying loop's header line, or [-1] when the dependence is not
     loop-carried (including when either stack is empty).

     This is {!Event.carrier} on table ids. After aligning depths the walk
     rests on two facts of a run: (1) there is one node per (instance,
     iteration), so the walk reaches [a = b] exactly when the deepest common
     frame (if any) has equal iteration numbers — not carried;
     (2) loop-instance ids are unique and an instance's outer stack is fixed
     for its whole lifetime, so two nodes agreeing on (line, inst) agree on
     everything above them — the first (line, inst) match found walking
     upward IS the deepest common frame of the prefix zip, and its ids
     differ iff the iterations differ (the dependence is carried by that
     loop). *)
  (* The walk helpers take the directory snapshot as an argument: as
     closures capturing it they would be allocated afresh on every call, and
     this sits on the profiler's per-access hot path. *)
  let rec cc_up d id n = if n <= 0 then id else cc_up d (field d id f_parent) (n - 1)

  let rec cc_walk d a b =
    if a = b then -1
    else
      let ba = blk d a and oa = base a and bb = blk d b and ob = base b in
      let line = ba.(oa + f_line) in
      if line = bb.(ob + f_line) && ba.(oa + f_inst) = bb.(ob + f_inst) then
        line
      else cc_walk d ba.(oa + f_parent) bb.(ob + f_parent)

  let carrier_code t ~src ~snk : int =
    if src = snk then -1
    else
      let d = Atomic.get t.dir in
      let da = field d src f_depth and db = field d snk f_depth in
      let a = if da > db then cc_up d src (da - db) else src in
      let b = if db > da then cc_up d snk (db - da) else snk in
      cc_walk d a b

  (* Conversions to/from the list representation, for tests and reporting. *)
  let to_frames t id : Event.frame list =
    let d = Atomic.get t.dir in
    let rec go id acc =
      if id = 0 then acc
      else
        go (field d id f_parent)
          ({ Event.loop_line = field d id f_line; inst = field d id f_inst;
             iter = field d id f_iter }
          :: acc)
    in
    go id []

  (* Reuses an equal node when the table has one (a linear scan), so equal
     frame lists get equal ids. *)
  let of_frames t (frames : Event.frame list) : int =
    List.fold_left
      (fun parent { Event.loop_line; inst; iter } ->
        let d = Atomic.get t.dir in
        let rec find id =
          if id >= t.cur.next then push t ~parent ~loop_line ~inst ~iter
          else if
            field d id f_parent = parent && field d id f_line = loop_line
            && field d id f_inst = inst && field d id f_iter = iter
          then id
          else find (id + 1)
        in
        find 1)
      empty frames

  let nodes t = t.cur.next

  (* The allocated blocks with their headers, the directory with its
     header, the table record, its atomic cell and the padded cursor. *)
  let words t =
    let blocks = ((t.cur.next - 1) lsr block_bits) + 1 in
    (blocks * ((width * block_nodes) + 1))
    + Array.length (Atomic.get t.dir) + 1 + 3 + 2 + 17
end
