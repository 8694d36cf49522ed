(* The Program Execution Tree (§2.3.6).

   Nodes are functions, loops, and blocks of straight-line code; edges are
   "calling" and "containing". Multiple dynamic instances of the same static
   construct are merged into one node (the paper treats a loop "as a whole"),
   with counters accumulating across instances. Subtree instruction totals
   feed the ranking's coverage and the loop classifier; the printer also
   counts the dependences whose sink lies in each node's span. *)

module Event = Trace.Event

type kind =
  | Fnode of string           (* function *)
  | Lnode of int              (* loop, by header line *)
  | Bnode of int              (* straight-line block, by first access line *)

type node = {
  id : int;
  kind : kind;
  parent : int;               (* -1 for the root function *)
  mutable children : int list; (* in first-encounter order, reversed *)
  mutable instructions : int;  (* dynamic memory instructions directly here *)
  mutable iterations : int;    (* loops: total iterations across instances *)
  mutable instances : int;     (* dynamic instances merged into this node *)
  mutable first_line : int;
  mutable last_line : int;
}

type t = {
  nodes : node array;
  n : int;
  root : int;
  subtree : int array;        (* instructions in each node's subtree *)
  totals : (kind, int * int) Hashtbl.t;
      (* per construct, over all its nodes: iterations, subtree instructions *)
}

(* Instance merging: a static construct under a given parent maps to one
   node, found by an int key packing the parent id + 1, a payload and a kind
   tag as [((parent + 1) lsl 29 lor payload) lsl 2 lor tag]. A function's
   payload is its name interned to a small int per builder; a loop's or a
   block's is its line when that lies in [0, 2^28), else 2^28 plus the line
   interned likewise, so payloads fit their 29 bits. *)
let tag_func = 0
let tag_loop = 1
let tag_block = 2
let wide_line = 1 lsl 28

(* Keys carry the parent in their high bits: mix those into the low bits the
   table indexes by. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)

type builder = {
  mutable barr : node array;              (* dynamic array of nodes *)
  mutable count : int;
  index : int Itbl.t;                     (* key -> node id *)
  (* The last child each parent looked up, at parent id + 1: a repeated
     loop iteration reopens its block with one int compare. *)
  mutable memo_key : int array;
  mutable memo_id : int array;
  funcs : (string, int) Hashtbl.t;        (* function name -> payload *)
  (* The last function entered and its payload: a name is the AST's
     string, so a repeat (a recursion, a call in a loop) is answered by
     physical equality, with no hash. *)
  mutable last_name : string;
  mutable last_payload : int;
  wide : (int, int) Hashtbl.t;            (* line outside [0, 2^28) -> payload *)
  mutable stack : int list;               (* open function and loop nodes *)
  mutable block : int;                    (* the open block node, or -1 *)
}

let no_key = -1

(* A string no event carries. *)
let no_name = String.make 1 '\000'

let dummy_node =
  { id = -1; kind = Bnode 0; parent = -1; children = []; instructions = 0;
    iterations = 0; instances = 0; first_line = 0; last_line = 0 }

let create_builder () =
  { barr = Array.make 64 dummy_node; count = 0; index = Itbl.create 64;
    memo_key = Array.make 65 no_key; memo_id = Array.make 65 0;
    funcs = Hashtbl.create 16; last_name = no_name; last_payload = 0;
    wide = Hashtbl.create 1;
    stack = []; block = -1 }

let grow a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let intern tbl k =
  match Hashtbl.find tbl k with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length tbl in
      Hashtbl.add tbl k id;
      id

let line_payload b line =
  if line >= 0 && line < wide_line then line else wide_line + intern b.wide line

let add_node b kind parent line =
  let id = b.count in
  if id = Array.length b.barr then begin
    b.barr <- grow b.barr (2 * id) dummy_node;
    b.memo_key <- grow b.memo_key ((2 * id) + 1) no_key;
    b.memo_id <- grow b.memo_id ((2 * id) + 1) 0
  end;
  b.barr.(id) <- { id; kind; parent; children = []; instructions = 0;
                   iterations = 0; instances = 0; first_line = line;
                   last_line = line };
  b.count <- id + 1;
  if parent >= 0 then begin
    let p = b.barr.(parent) in
    p.children <- id :: p.children
  end;
  id

(* One more instance of a construct under the innermost open node: its
   merged node, created on first sight; [name] is read only for a new
   function node. *)
let instance b ~tag ~payload ~line ~name =
  let parent = match b.stack with [] -> -1 | p :: _ -> p in
  let key = ((((parent + 1) lsl 29) lor payload) lsl 2) lor tag in
  let slot = parent + 1 in
  let id =
    if b.memo_key.(slot) = key then b.memo_id.(slot)
    else begin
      let id =
        match Itbl.find b.index key with
        | id -> id
        | exception Not_found ->
            let kind =
              if tag = tag_func then Fnode name
              else if tag = tag_loop then Lnode line
              else Bnode line
            in
            let id = add_node b kind parent line in
            Itbl.add b.index key id;
            id
      in
      (* [add_node] may have grown the memo arrays. *)
      b.memo_key.(slot) <- key;
      b.memo_id.(slot) <- id;
      id
    end
  in
  let n = b.barr.(id) in
  n.instances <- n.instances + 1;
  n

let enter b ~tag ~payload ~line ~name =
  let n = instance b ~tag ~payload ~line ~name in
  b.stack <- n.id :: b.stack;
  b.block <- -1

let leave b =
  (match b.stack with [] -> () | _ :: rest -> b.stack <- rest);
  b.block <- -1

(* An access contributes only its line. *)
let feed_access_line b ~line =
  if b.block >= 0 then begin
    let blk = b.barr.(b.block) in
    blk.instructions <- blk.instructions + 1;
    if line < blk.first_line then blk.first_line <- line;
    if line > blk.last_line then blk.last_line <- line
  end
  else begin
    (* Open a block node for this run of straight-line accesses. *)
    let blk =
      instance b ~tag:tag_block ~payload:(line_payload b line) ~line ~name:""
    in
    blk.instructions <- blk.instructions + 1;
    b.block <- blk.id
  end

let feed_region b (r : Event.region) =
  match r with
  | Event.Func_entry { name; line; _ } ->
      let payload =
        if name == b.last_name then b.last_payload
        else begin
          let p = intern b.funcs name in
          b.last_name <- name;
          b.last_payload <- p;
          p
        end
      in
      enter b ~tag:tag_func ~payload ~line ~name
  | Event.Func_exit _ -> leave b
  | Event.Loop_entry { line; _ } ->
      enter b ~tag:tag_loop ~payload:(line_payload b line) ~line ~name:""
  | Event.Loop_exit { iterations; _ } ->
      (match b.stack with
      | id :: _ -> b.barr.(id).iterations <- b.barr.(id).iterations + iterations
      | [] -> ());
      leave b
  | Event.Loop_iter _ -> b.block <- -1
  | Event.Dealloc _ | Event.Thread_start _ | Event.Thread_end _ -> ()

let finish b : t =
  if b.count = 0 then ignore (add_node b (Fnode "<empty>") (-1) 0);
  let nodes = Array.sub b.barr 0 b.count in
  let subtree = Array.map (fun n -> n.instructions) nodes in
  (* A child is created after its parent, so a sweep down the ids visits
     each node after its whole subtree: one post-order pass propagates line
     spans upward (containers cover their contents) and sums subtree
     instructions. *)
  for id = b.count - 1 downto 0 do
    let n = nodes.(id) in
    n.children <- List.rev n.children;
    if n.parent >= 0 then begin
      let p = nodes.(n.parent) in
      if n.first_line < p.first_line && n.first_line > 0 then
        p.first_line <- n.first_line;
      if n.last_line > p.last_line then p.last_line <- n.last_line;
      subtree.(n.parent) <- subtree.(n.parent) + subtree.(id)
    end
  done;
  let totals = Hashtbl.create 64 in
  Array.iteri
    (fun id n ->
      let iters, instr =
        Option.value (Hashtbl.find_opt totals n.kind) ~default:(0, 0)
      in
      Hashtbl.replace totals n.kind (iters + n.iterations, instr + subtree.(id)))
    nodes;
  { nodes; n = b.count; root = 0; subtree; totals }

let node t id = t.nodes.(id)
let size t = t.n

(* Total memory instructions in the subtree rooted at [id]. *)
let subtree_instructions t id = t.subtree.(id)
let total_instructions t = subtree_instructions t t.root

let totals t kind =
  Option.value (Hashtbl.find_opt t.totals kind) ~default:(0, 0)

(* Number of elements of the sorted [a] below [x], or at most [x] when
   [incl]. *)
let rank a x ~incl =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x || (incl && a.(mid) = x) then lo := mid + 1 else hi := mid
  done;
  !lo

let iter f t =
  for i = 0 to t.n - 1 do
    f t.nodes.(i)
  done

(* A dependence counts for every node whose line span contains its sink:
   sort the distinct records' sink lines once, then count each node's span
   with two binary searches. *)
let to_string t (deps : Dep.Set_.t) =
  let sinks = Array.make (Dep.Set_.cardinal deps) 0 in
  let k = ref 0 in
  Dep.Set_.iter
    (fun d _count ->
      sinks.(!k) <- d.Dep.sink_line;
      incr k)
    deps;
  Array.sort Int.compare sinks;
  let deps_in_span n =
    max 0 (rank sinks n.last_line ~incl:true - rank sinks n.first_line ~incl:false)
  in
  let buf = Buffer.create 256 in
  let rec go indent id =
    let n = t.nodes.(id) in
    let label =
      match n.kind with
      | Fnode f -> Printf.sprintf "func %s" f
      | Lnode l -> Printf.sprintf "loop @%d (%d iterations)" l n.iterations
      | Bnode l -> Printf.sprintf "block @%d" l
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s [lines %d-%d, %d instr, %d deps]\n"
         (String.make indent ' ') label n.first_line n.last_line
         (subtree_instructions t id) (deps_in_span n));
    List.iter (go (indent + 2)) n.children
  in
  go 0 t.root;
  Buffer.contents buf
