(* Rewrite and substitution utilities over MIL ASTs, built on the walker in
   {!Ast}.

   The transform subsystem (lib/transform) edits programs mechanically:
   deep-copy (statements are mutable because of [line] patching, so a
   transformed program must never share them with the original the
   suggestions were computed on), variable renaming for privatisation and
   reduction rewriting, statement replacement by source line, and the
   syntactic feasibility probes (calls, transitive rand use, escaping
   control flow) a transform must run before touching a region. *)

open Ast

(* ---- deep copy ---- *)

let copy_block (b : block) : block = map_block Fun.id b

let copy_program (p : program) : program =
  { p with funcs = List.map (fun f -> { f with body = copy_block f.body }) p.funcs }

(* ---- variable renaming ----

   Renames every occurrence of a name: scalar reads/writes, array
   reads/writes, lengths, declarations. Function parameters and call
   arguments are expressions and rename with the rest; callee bodies are
   separate scopes and are not touched. *)

let rename_expr ~from ~to_ (e : expr) : expr =
  let n x = if x = from then to_ else x in
  map_expr
    (function
      | Var x -> Var (n x)
      | Idx (a, i) -> Idx (n a, i)
      | Len a -> Len (n a)
      | e -> e)
    e

let rename_stmt ~from ~to_ (s : stmt) : stmt =
  let n x = if x = from then to_ else x in
  let lhs = function Lvar x -> Lvar (n x) | Lidx (a, i) -> Lidx (n a, i) in
  let node =
    match s.node with
    | Decl (x, e) -> Decl (n x, e)
    | Decl_arr (x, e) -> Decl_arr (n x, e)
    | Assign (l, e) -> Assign (lhs l, e)
    | Atomic_assign (l, e) -> Atomic_assign (lhs l, e)
    | For f -> For { f with index = n f.index }
    | Free x -> Free (n x)
    | node -> node
  in
  map_stmt ~expr:(rename_expr ~from ~to_) { s with node }

let rename_block ~from ~to_ (b : block) : block =
  map_block (rename_stmt ~from ~to_) b

(* ---- statement search / replacement by source line ---- *)

let replace_lines (p : program) ~lines ~(f : stmt list -> stmt list) :
    program option =
  let first = List.hd lines and n = List.length lines in
  let hit = ref false in
  let rec splice b =
    match b with
    | s :: _ when (not !hit) && s.line = first ->
        let seg = List.filteri (fun i _ -> i < n) b in
        if List.map (fun t -> t.line) seg <> lines then b
        else begin
          hit := true;
          f seg @ List.filteri (fun i _ -> i >= n) b
        end
    | s :: rest when not !hit ->
        let s = if stmt_blocks s = [] then s else map_stmt ~block:splice s in
        s :: splice rest
    | b -> b
  in
  let funcs =
    List.map (fun fn -> if !hit then fn else { fn with body = splice fn.body }) p.funcs
  in
  if !hit then Some { p with funcs } else None

let find_by_line (p : program) ~line : stmt option =
  List.find_map
    (fun fn ->
      fold_block
        (fun found s ->
          match found with
          | Some _ -> found
          | None -> if s.line = line then Some s else None)
        None fn.body)
    p.funcs

(* ---- syntactic probes ---- *)

let stmt_calls (s : stmt) acc =
  let acc = match s.node with Call_stmt (f, _) -> f :: acc | _ -> acc in
  List.fold_left
    (fold_expr (fun acc e -> match e with Call (f, _) -> f :: acc | _ -> acc))
    acc (stmt_exprs s)

let expr_has_call = exists_expr (function Call _ -> true | _ -> false)

let block_calls (b : block) = fold_block (fun acc s -> stmt_calls s acc) [] b

(* Transitive closure of the call names reachable from [b], following user
   function bodies; builtin names ({!Ast.builtin}) stay in the set as
   leaves. *)
let reachable_calls (p : program) (b : block) : string list =
  let seen = Hashtbl.create 8 in
  let rec visit names =
    List.iter
      (fun name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          match List.find_opt (fun f -> f.fname = name) p.funcs with
          | Some f -> visit (block_calls f.body)
          | None -> ()
        end)
      names
  in
  visit (block_calls b);
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let stmt_names (s : stmt) acc =
  let acc =
    List.fold_left
      (fold_expr (fun acc e ->
           match e with Var x | Len x | Idx (x, _) -> x :: acc | _ -> acc))
      acc (stmt_exprs s)
  in
  match s.node with
  | Decl (x, _) | Decl_arr (x, _) | Free x | For { index = x; _ }
  | Assign ((Lvar x | Lidx (x, _)), _)
  | Atomic_assign ((Lvar x | Lidx (x, _)), _) ->
      x :: acc
  | If _ | While _ | Call_stmt _ | Return _ | Break | Par _ | Lock _
  | Unlock _ | Barrier _ ->
      acc

let mentions (b : block) x = exists_block (fun s -> List.mem x (stmt_names s [])) b

let count_stmts (b : block) = fold_block (fun n _ -> n + 1) 0 b

(* Thread-parallelism or synchronisation constructs anywhere in the block
   (directly; callee bodies are not inspected). *)
let has_sync =
  exists_block (fun s -> is_sync s || match s.node with Par _ -> true | _ -> false)

let has_par (p : program) =
  List.exists
    (fun f -> exists_block (fun s -> match s.node with Par _ -> true | _ -> false) f.body)
    p.funcs

let has_return = exists_block (fun s -> match s.node with Return _ -> true | _ -> false)

(* A [Break] that would escape the region's own loop: one not nested inside
   a deeper loop of the block. *)
let rec has_toplevel_break (b : block) =
  List.exists
    (fun s ->
      match s.node with
      | Break -> true
      | While _ | For _ -> false
      | _ -> List.exists has_toplevel_break (stmt_blocks s))
    b
