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

     Concurrency. Only the producer (the interpreter's domain) pushes.
     Parallel-profiler workers read nodes by ids they received through the
     SPSC queues, whose push/pop is the happens-before edge publishing every
     node an id refers to. Growth copies into bigger arrays and swaps them
     in with [Atomic.set] after the copy, so a reader never sees a store
     whose prefix is not fully initialised. *)

  (* Node store: stack id -> frame fields + parent stack id. Id 0 is the
     empty stack. Struct-of-arrays keeps the carrier walk on int arrays. *)
  type store = {
    parent : int array;
    line : int array;    (* loop header line *)
    inst : int array;    (* dynamic loop-instance id *)
    iter : int array;    (* iteration number *)
    depth : int array;   (* 0 for the empty stack *)
  }

  type t = { store : store Atomic.t; mutable next : int }

  let mk_store n =
    { parent = Array.make n 0; line = Array.make n 0; inst = Array.make n 0;
      iter = Array.make n 0; depth = Array.make n 0 }

  (* Id 0, the empty stack, is preallocated as all-zero. Arrays longer than
     256 words are allocated directly in the major heap, where a table that
     lives for the whole run belongs: the profiler's minor allocation per
     access stays as it was. *)
  let create () = { store = Atomic.make (mk_store 1024); next = 1 }

  let empty = 0

  (* A store twice as big, holding the [n] nodes of [cur]. *)
  let grow t (cur : store) n =
    let bigger = mk_store (2 * Array.length cur.parent) in
    Array.blit cur.parent 0 bigger.parent 0 n;
    Array.blit cur.line 0 bigger.line 0 n;
    Array.blit cur.inst 0 bigger.inst 0 n;
    Array.blit cur.iter 0 bigger.iter 0 n;
    Array.blit cur.depth 0 bigger.depth 0 n;
    Atomic.set t.store bigger;
    bigger

  let push t ~parent ~loop_line ~inst ~iter : int =
    let id = t.next in
    t.next <- id + 1;
    let cur = Atomic.get t.store in
    let s = if id < Array.length cur.parent then cur else grow t cur id in
    s.parent.(id) <- parent;
    s.line.(id) <- loop_line;
    s.inst.(id) <- inst;
    s.iter.(id) <- iter;
    s.depth.(id) <- s.depth.(parent) + 1;
    id

  let depth t id = (Atomic.get t.store).depth.(id)

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
  (* The walk helpers take the store snapshot as an argument: as closures
     capturing [s] they would be allocated afresh on every call, and this
     sits on the profiler's per-access hot path. *)
  let rec cc_up s id n = if n <= 0 then id else cc_up s s.parent.(id) (n - 1)

  let rec cc_walk s a b =
    if a = b then -1
    else if s.line.(a) = s.line.(b) && s.inst.(a) = s.inst.(b) then s.line.(a)
    else cc_walk s s.parent.(a) s.parent.(b)

  let carrier_code t ~src ~snk : int =
    if src = snk then -1
    else
      let s = Atomic.get t.store in
      let da = s.depth.(src) and db = s.depth.(snk) in
      let a = if da > db then cc_up s src (da - db) else src in
      let b = if db > da then cc_up s snk (db - da) else snk in
      cc_walk s a b

  (* Conversions to/from the list representation, for tests and reporting. *)
  let to_frames t id : Event.frame list =
    let s = Atomic.get t.store in
    let rec go id acc =
      if id = 0 then acc
      else
        go s.parent.(id)
          ({ Event.loop_line = s.line.(id); inst = s.inst.(id);
             iter = s.iter.(id) }
          :: acc)
    in
    go id []

  (* Reuses an equal node when the table has one (a linear scan), so equal
     frame lists get equal ids. *)
  let of_frames t (frames : Event.frame list) : int =
    List.fold_left
      (fun parent { Event.loop_line; inst; iter } ->
        let s = Atomic.get t.store in
        let rec find id =
          if id >= t.next then push t ~parent ~loop_line ~inst ~iter
          else if
            s.parent.(id) = parent && s.line.(id) = loop_line
            && s.inst.(id) = inst && s.iter.(id) = iter
          then id
          else find (id + 1)
        in
        find 1)
      empty frames

  let nodes t = t.next

  (* The five node arrays and their headers, the store and table records. *)
  let words t = (5 * (Array.length (Atomic.get t.store).parent + 1)) + 9
end
