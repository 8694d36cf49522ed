(* Interning for the profiler hot path.

   Every dynamic memory access used to carry a [string] variable name and a
   [frame list] loop stack; at millions of accesses per run the copies and
   the per-dependence stack zips dominated profiling cost. Instead:

   - variable names are interned to int symbols ({!Sym}), rendered back to
     strings only at reporting boundaries;
   - loop stacks are hash-consed into an append-only node store ({!Lstack}):
     a stack is an int id, pushing a frame is one memo lookup per loop
     iteration (not per access), and the carrier computation of
     {!Event.carrier} becomes an allocation-free parent walk over int arrays.

   Hash-consing gives maximal sharing: equal stacks (same frames, same
   iteration numbers) have equal ids, so id equality is stack equality.

   Concurrency: interning ([Sym.intern], [Lstack.push]) is serialized by a
   mutex — the batch pipeline driver runs whole profiling jobs in concurrent
   domains, each interpreting (and therefore interning) at once. Sharing the
   tables across jobs is sound because hash-consing is content-addressed:
   equal keys denote equal content, whichever domain inserted first. Within
   one run the lock is uncontended and taken once per loop iteration and
   once per name when the program is lowered, never per access. Resolution stays lock-free: profiler
   worker domains read ids they received through the lock-free queues, whose
   push/pop is the happens-before edge publishing every entry an id refers
   to (for same-domain or mutex-passing readers the lock itself is). The
   growable backing arrays are swapped in via [Atomic.set] after the copy,
   so a reader never observes a store whose prefix is not fully
   initialised. *)

let lock = Mutex.create ()

module Sym = struct
  type store = { names : string array }

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

  let count () = !next
end

module Lstack = struct
  (* Node store: stack id -> frame fields + parent stack id. Id 0 is the
     empty stack. Struct-of-arrays keeps the carrier walk on int arrays. *)
  type store = {
    parent : int array;
    line : int array;    (* loop header line *)
    inst : int array;    (* dynamic loop-instance id *)
    iter : int array;    (* iteration number *)
    depth : int array;   (* 0 for the empty stack *)
  }

  let mk_store n =
    { parent = Array.make n 0; line = Array.make n 0; inst = Array.make n 0;
      iter = Array.make n 0; depth = Array.make n 0 }

  let store = Atomic.make (mk_store 1024)
  let next = ref 1  (* 0 = empty stack, preallocated as all-zero *)

  let empty = 0
  let is_empty id = id = 0

  (* Hash-consing memo: an open-addressed table of stack ids (0 = free),
     at most half full, whose keys are the ids' own entries in the store.
     Touched once per loop iteration, not per access. *)
  let memo = ref (Array.make 2048 0)

  let hash parent line inst iter =
    let h = (((((parent * 31) + line) * 31) + inst) * 31) + iter in
    (h * 0x9E3779B1) lsr 5

  let rec probe s tbl mask parent line inst iter i =
    let id = tbl.(i) in
    if
      id = 0
      || s.parent.(id) = parent && s.line.(id) = line && s.inst.(id) = inst
         && s.iter.(id) = iter
    then i
    else probe s tbl mask parent line inst iter ((i + 1) land mask)

  let slot s tbl parent line inst iter =
    let mask = Array.length tbl - 1 in
    probe s tbl mask parent line inst iter (hash parent line inst iter land mask)

  let grow_store id =
    let cur = Atomic.get store in
    if id >= Array.length cur.parent then begin
      let bigger = mk_store (2 * Array.length cur.parent) in
      Array.blit cur.parent 0 bigger.parent 0 id;
      Array.blit cur.line 0 bigger.line 0 id;
      Array.blit cur.inst 0 bigger.inst 0 id;
      Array.blit cur.iter 0 bigger.iter 0 id;
      Array.blit cur.depth 0 bigger.depth 0 id;
      Atomic.set store bigger
    end

  let rehash s =
    let tbl = Array.make (2 * Array.length !memo) 0 in
    for id = 1 to !next - 1 do
      tbl.(slot s tbl s.parent.(id) s.line.(id) s.inst.(id) s.iter.(id)) <- id
    done;
    memo := tbl

  let push_locked parent loop_line inst iter =
    let s = Atomic.get store in
    let i = slot s !memo parent loop_line inst iter in
    let found = !memo.(i) in
    if found <> 0 then found
    else begin
      let id = !next in
      incr next;
      grow_store id;
      let s = Atomic.get store in
      s.parent.(id) <- parent;
      s.line.(id) <- loop_line;
      s.inst.(id) <- inst;
      s.iter.(id) <- iter;
      s.depth.(id) <- s.depth.(parent) + 1;
      !memo.(i) <- id;
      if 2 * !next > Array.length !memo then rehash s;
      id
    end

  (* Locked without [Mutex.protect], whose closure would be allocated on
     every push. *)
  let push ~parent ~loop_line ~inst ~iter : int =
    Mutex.lock lock;
    match push_locked parent loop_line inst iter with
    | id ->
        Mutex.unlock lock;
        id
    | exception e ->
        Mutex.unlock lock;
        raise e

  let depth id = (Atomic.get store).depth.(id)

  (* The innermost frame's loop header line; [-1] for the empty stack. *)
  let innermost_line id =
    if id = 0 then -1 else (Atomic.get store).line.(id)

  let innermost id : Event.frame option =
    if id = 0 then None
    else
      let s = Atomic.get store in
      Some
        { Event.loop_line = s.line.(id); inst = s.inst.(id);
          iter = s.iter.(id) }

  (* Carrier of a dependence between loop stacks [src] and [snk], as a code:
     the carrying loop's header line, or [-1] when the dependence is not
     loop-carried (including when either stack is empty).

     This is {!Event.carrier} on interned stacks. The walk exploits two
     hash-consing facts: (1) equal ids are equal stacks, so reaching [a = b]
     means the deepest common frame (if any) has equal iteration numbers —
     not carried; (2) loop-instance ids are globally unique and a dynamic
     instance's outer stack is fixed for its whole lifetime, so two nodes
     agreeing on (line, inst) necessarily agree on everything above them —
     the first (line, inst) match found walking upward IS the deepest common
     frame of the prefix zip, and its ids differ iff the iterations differ
     (i.e. the dependence is carried by that loop). *)
  (* The walk helpers take the store snapshot as an argument: as closures
     capturing [s] they would be allocated afresh on every call, and this
     sits on the profiler's per-access hot path. *)
  let rec cc_up s id n = if n <= 0 then id else cc_up s s.parent.(id) (n - 1)

  let rec cc_walk s a b =
    if a = b then -1
    else if s.line.(a) = s.line.(b) && s.inst.(a) = s.inst.(b) then s.line.(a)
    else cc_walk s s.parent.(a) s.parent.(b)

  let carrier_code ~src ~snk : int =
    if src = snk then -1
    else
      let s = Atomic.get store in
      let da = s.depth.(src) and db = s.depth.(snk) in
      let a = if da > db then cc_up s src (da - db) else src in
      let b = if db > da then cc_up s snk (db - da) else snk in
      cc_walk s a b

  (* Conversions to/from the list representation, for tests and reporting. *)
  let to_frames id : Event.frame list =
    let s = Atomic.get store in
    let rec go id acc =
      if id = 0 then acc
      else
        go s.parent.(id)
          ({ Event.loop_line = s.line.(id); inst = s.inst.(id);
             iter = s.iter.(id) }
          :: acc)
    in
    go id []

  let of_frames (frames : Event.frame list) : int =
    List.fold_left
      (fun parent (f : Event.frame) ->
        push ~parent ~loop_line:f.Event.loop_line ~inst:f.Event.inst
          ~iter:f.Event.iter)
      empty frames

  let count () = !next
end
