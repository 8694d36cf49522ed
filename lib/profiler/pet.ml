(* The Program Execution Tree (§2.3.6).

   Nodes are functions, loops, and blocks of straight-line code; edges are
   "calling" and "containing". Multiple dynamic instances of the same static
   construct are merged into one node (the paper treats a loop "as a whole"),
   with counters accumulating across instances. Per-node metrics (executed
   memory instructions, iterations, dependences) drive the ranking phase. *)

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
  mutable dep_count : int;     (* dependences with sink directly here *)
}

type t = {
  mutable nodes : node array;
  mutable n : int;
  root : int;
}

type builder = {
  mutable barr : node array;              (* dynamic array of nodes *)
  mutable count : int;
  (* Instance merging: a static construct under a given parent maps to one
     node. *)
  index : (int * string, int) Hashtbl.t;  (* (parent, key) -> node id *)
  mutable stack : node list;              (* innermost first *)
  mutable current_block : node option;
}

let key_of_kind = function
  | Fnode f -> "f:" ^ f
  | Lnode l -> "l:" ^ string_of_int l
  | Bnode l -> "b:" ^ string_of_int l

let dummy_node =
  { id = -1; kind = Bnode 0; parent = -1; children = []; instructions = 0;
    iterations = 0; instances = 0; first_line = 0; last_line = 0;
    dep_count = 0 }

let create_builder () =
  { barr = Array.make 64 dummy_node; count = 0; index = Hashtbl.create 64;
    stack = []; current_block = None }

let new_node b kind parent line =
  let n =
    { id = b.count; kind; parent; children = []; instructions = 0;
      iterations = 0; instances = 0; first_line = line; last_line = line;
      dep_count = 0 }
  in
  if b.count = Array.length b.barr then begin
    let a = Array.make (2 * b.count) dummy_node in
    Array.blit b.barr 0 a 0 b.count;
    b.barr <- a
  end;
  b.barr.(b.count) <- n;
  b.count <- b.count + 1;
  n

(* Find or create the merged node for [kind] under the current top. *)
let enter b kind line =
  let parent_id = match b.stack with [] -> -1 | p :: _ -> p.id in
  let key = (parent_id, key_of_kind kind) in
  let n =
    match Hashtbl.find_opt b.index key with
    | Some id -> b.barr.(id)
    | None ->
        let n = new_node b kind parent_id line in
        Hashtbl.replace b.index key n.id;
        (match b.stack with [] -> () | p :: _ -> p.children <- n.id :: p.children);
        n
  in
  n.instances <- n.instances + 1;
  b.stack <- n :: b.stack;
  b.current_block <- None;
  n

let leave b =
  (match b.stack with [] -> () | _ :: rest -> b.stack <- rest);
  b.current_block <- None

(* An access contributes only its line. *)
let feed_access_line b ~line =
  match b.current_block with
  | Some blk ->
      blk.instructions <- blk.instructions + 1;
      if line < blk.first_line then blk.first_line <- line;
      if line > blk.last_line then blk.last_line <- line
  | None ->
      (* Open a block node for this run of straight-line accesses. *)
      let parent_id = match b.stack with [] -> -1 | p :: _ -> p.id in
      let key = (parent_id, key_of_kind (Bnode line)) in
      let blk =
        match Hashtbl.find_opt b.index key with
        | Some id -> b.barr.(id)
        | None ->
            let n = new_node b (Bnode line) parent_id line in
            Hashtbl.replace b.index key n.id;
            (match b.stack with
            | [] -> ()
            | p :: _ -> p.children <- n.id :: p.children);
            n
      in
      blk.instances <- blk.instances + 1;
      blk.instructions <- blk.instructions + 1;
      b.current_block <- Some blk

let feed_region b (r : Event.region) =
  match r with
  | Event.Func_entry { name; line; _ } -> ignore (enter b (Fnode name) line)
  | Event.Func_exit _ -> leave b
  | Event.Loop_entry { line; _ } -> ignore (enter b (Lnode line) line)
  | Event.Loop_exit { iterations; _ } ->
      (match b.stack with
      | n :: _ -> n.iterations <- n.iterations + iterations
      | [] -> ());
      leave b
  | Event.Loop_iter _ -> b.current_block <- None
  | Event.Dealloc _ | Event.Thread_start _ | Event.Thread_end _ -> ()

let finish b : t =
  if b.count = 0 then ignore (new_node b (Fnode "<empty>") (-1) 0);
  let arr = Array.sub b.barr 0 b.count in
  Array.iter (fun n -> n.children <- List.rev n.children) arr;
  (* Propagate line spans upward so containers cover their contents. *)
  let rec span id =
    let n = arr.(id) in
    List.iter
      (fun c ->
        span c;
        if arr.(c).first_line < n.first_line && arr.(c).first_line > 0 then
          n.first_line <- arr.(c).first_line;
        if arr.(c).last_line > n.last_line then n.last_line <- arr.(c).last_line)
      n.children
  in
  Array.iter (fun n -> if n.parent = -1 then span n.id) arr;
  { nodes = arr; n = b.count; root = 0 }

let node t id = t.nodes.(id)
let size t = t.n

(* Total memory instructions in the subtree rooted at [id]. *)
let rec subtree_instructions t id =
  let n = t.nodes.(id) in
  List.fold_left
    (fun acc c -> acc + subtree_instructions t c)
    n.instructions n.children

let total_instructions t = subtree_instructions t t.root

(* Attribute merged dependences to the PET: a dependence counts for every
   node whose line span contains its sink. *)
let attach_deps t (deps : Dep.Set_.t) =
  Dep.Set_.iter
    (fun d _count ->
      Array.iter
        (fun n ->
          if d.Dep.sink_line >= n.first_line && d.Dep.sink_line <= n.last_line
          then n.dep_count <- n.dep_count + 1)
        t.nodes)
    deps

let iter f t =
  for i = 0 to t.n - 1 do
    f t.nodes.(i)
  done

let to_string t =
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
         (subtree_instructions t id) n.dep_count);
    List.iter (go (indent + 2)) n.children
  in
  go 0 t.root;
  Buffer.contents buf
