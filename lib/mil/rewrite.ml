(* Rewrite and substitution utilities over MIL ASTs.

   The transform subsystem (lib/transform) edits programs mechanically:
   deep-copy (statements are mutable because of [line] patching, so a
   transformed program must never share them with the original the
   suggestions were computed on), variable renaming for privatisation and
   reduction rewriting, statement replacement by source line, and the
   syntactic feasibility probes (calls, transitive rand use, escaping
   control flow) a transform must run before touching a region. *)

open Ast

(* ---- deep copy ---- *)

let rec copy_stmt (s : stmt) : stmt =
  let node =
    match s.node with
    | Decl _ | Decl_arr _ | Assign _ | Atomic_assign _ | Call_stmt _
    | Return _ | Break | Lock _ | Unlock _ | Barrier _ | Free _ ->
        s.node
    | If (c, t, e) -> If (c, copy_block t, copy_block e)
    | While (c, b) -> While (c, copy_block b)
    | For f -> For { f with body = copy_block f.body }
    | Par blocks -> Par (List.map copy_block blocks)
  in
  { line = s.line; node }

and copy_block (b : block) : block = List.map copy_stmt b

let copy_func (f : func) : func = { f with body = copy_block f.body }

let copy_program (p : program) : program =
  { p with funcs = List.map copy_func p.funcs }

(* ---- variable renaming ----

   Renames every occurrence of a name: scalar reads/writes, array
   reads/writes, lengths, declarations. Function parameters and call
   arguments are expressions and rename with the rest; callee bodies are
   separate scopes and are not touched. *)

let rec rename_expr ~from ~to_ (e : expr) : expr =
  let r = rename_expr ~from ~to_ in
  match e with
  | Int _ -> e
  | Var x -> if x = from then Var to_ else e
  | Idx (a, ie) -> Idx ((if a = from then to_ else a), r ie)
  | Len a -> if a = from then Len to_ else e
  | Bin (op, e1, e2) -> Bin (op, r e1, r e2)
  | Neg e1 -> Neg (r e1)
  | Not e1 -> Not (r e1)
  | Call (f, args) -> Call (f, List.map r args)

let rename_lhs ~from ~to_ (l : lhs) : lhs =
  match l with
  | Lvar x -> if x = from then Lvar to_ else l
  | Lidx (a, ie) ->
      Lidx ((if a = from then to_ else a), rename_expr ~from ~to_ ie)

let rec rename_stmt ~from ~to_ (s : stmt) : stmt =
  let re = rename_expr ~from ~to_ in
  let rl = rename_lhs ~from ~to_ in
  let rb = rename_block ~from ~to_ in
  let node =
    match s.node with
    | Decl (x, e) -> Decl ((if x = from then to_ else x), re e)
    | Decl_arr (x, e) -> Decl_arr ((if x = from then to_ else x), re e)
    | Assign (l, e) -> Assign (rl l, re e)
    | Atomic_assign (l, e) -> Atomic_assign (rl l, re e)
    | If (c, t, e) -> If (re c, rb t, rb e)
    | While (c, b) -> While (re c, rb b)
    | For f ->
        For
          { index = (if f.index = from then to_ else f.index);
            lo = re f.lo; hi = re f.hi; step = re f.step; body = rb f.body }
    | Call_stmt (f, args) -> Call_stmt (f, List.map re args)
    | Return (Some e) -> Return (Some (re e))
    | Return None | Break | Lock _ | Unlock _ | Barrier _ -> s.node
    | Free x -> Free (if x = from then to_ else x)
    | Par blocks -> Par (List.map rb blocks)
  in
  { line = s.line; node }

and rename_block ~from ~to_ (b : block) : block =
  List.map (rename_stmt ~from ~to_) b

(* ---- statement search / replacement by source line ---- *)

let rec replace_in_block (b : block) ~line ~(f : stmt -> stmt list) :
    block * bool =
  match b with
  | [] -> ([], false)
  | s :: rest when s.line = line ->
      (f s @ rest, true)
  | s :: rest ->
      let s', hit = replace_in_stmt s ~line ~f in
      if hit then (s' :: rest, true)
      else
        let rest', hit = replace_in_block rest ~line ~f in
        (s :: rest', hit)

and replace_in_stmt (s : stmt) ~line ~f : stmt * bool =
  let wrap node = { line = s.line; node } in
  match s.node with
  | If (c, t, e) ->
      let t', hit = replace_in_block t ~line ~f in
      if hit then (wrap (If (c, t', e)), true)
      else
        let e', hit = replace_in_block e ~line ~f in
        (wrap (If (c, t, e')), hit)
  | While (c, b) ->
      let b', hit = replace_in_block b ~line ~f in
      (wrap (While (c, b')), hit)
  | For fl ->
      let b', hit = replace_in_block fl.body ~line ~f in
      (wrap (For { fl with body = b' }), hit)
  | Par blocks ->
      let rec go = function
        | [] -> ([], false)
        | blk :: rest ->
            let blk', hit = replace_in_block blk ~line ~f in
            if hit then (blk' :: rest, true)
            else
              let rest', hit = go rest in
              (blk :: rest', hit)
      in
      let blocks', hit = go blocks in
      (wrap (Par blocks'), hit)
  | _ -> (s, false)

let replace_by_line (p : program) ~line ~(f : stmt -> stmt list) :
    program option =
  let rec go = function
    | [] -> None
    | fn :: rest -> (
        let body', hit = replace_in_block fn.body ~line ~f in
        if hit then Some ({ fn with body = body' } :: rest)
        else match go rest with Some rest' -> Some (fn :: rest') | None -> None)
  in
  Option.map (fun funcs -> { p with funcs }) (go p.funcs)

let rec find_in_block (b : block) ~line : stmt option =
  List.find_map
    (fun s ->
      if s.line = line then Some s
      else
        match s.node with
        | If (_, t, e) -> (
            match find_in_block t ~line with
            | Some r -> Some r
            | None -> find_in_block e ~line)
        | While (_, body) | For { body; _ } -> find_in_block body ~line
        | Par blocks -> List.find_map (fun blk -> find_in_block blk ~line) blocks
        | _ -> None)
    b

let find_by_line (p : program) ~line : (stmt * string) option =
  List.find_map
    (fun fn ->
      Option.map (fun s -> (s, fn.fname)) (find_in_block fn.body ~line))
    p.funcs

(* ---- syntactic probes ---- *)

let rec expr_calls (e : expr) acc =
  match e with
  | Int _ | Var _ | Len _ -> acc
  | Idx (_, ie) -> expr_calls ie acc
  | Bin (_, e1, e2) -> expr_calls e1 (expr_calls e2 acc)
  | Neg e1 | Not e1 -> expr_calls e1 acc
  | Call (f, args) -> f :: List.fold_right expr_calls args acc

let expr_has_call e = expr_calls e [] <> []

let rec block_calls (b : block) acc =
  List.fold_right
    (fun s acc ->
      match s.node with
      | Decl (_, e) | Decl_arr (_, e) | Return (Some e) -> expr_calls e acc
      | Assign (l, e) | Atomic_assign (l, e) ->
          let acc = expr_calls e acc in
          (match l with Lidx (_, ie) -> expr_calls ie acc | Lvar _ -> acc)
      | If (c, t, els) -> expr_calls c (block_calls t (block_calls els acc))
      | While (c, body) -> expr_calls c (block_calls body acc)
      | For { lo; hi; step; body; _ } ->
          expr_calls lo (expr_calls hi (expr_calls step (block_calls body acc)))
      | Call_stmt (f, args) -> f :: List.fold_right expr_calls args acc
      | Par blocks -> List.fold_right block_calls blocks acc
      | Return None | Break | Lock _ | Unlock _ | Barrier _ | Free _ -> acc)
    b acc

(* Transitive closure of the call names reachable from [b], following user
   function bodies; builtin names ("rand", "abs", "print") stay in the set
   as leaves. *)
let reachable_calls (p : program) (b : block) : string list =
  let seen = Hashtbl.create 8 in
  let rec visit names =
    List.iter
      (fun name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          match List.find_opt (fun f -> f.fname = name) p.funcs with
          | Some f -> visit (block_calls f.body [])
          | None -> ()
        end)
      names
  in
  visit (block_calls b []);
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let calls_transitively (p : program) (b : block) name =
  List.mem name (reachable_calls p b)

(* Thread-parallelism or synchronisation constructs anywhere in the block
   (directly; callee bodies are not inspected). *)
let rec has_sync (b : block) =
  List.exists
    (fun s ->
      match s.node with
      | Par _ | Lock _ | Unlock _ | Barrier _ -> true
      | If (_, t, e) -> has_sync t || has_sync e
      | While (_, body) | For { body; _ } -> has_sync body
      | _ -> false)
    b

let rec block_has_par (b : block) =
  List.exists
    (fun s ->
      match s.node with
      | Par _ -> true
      | If (_, t, e) -> block_has_par t || block_has_par e
      | While (_, body) | For { body; _ } -> block_has_par body
      | _ -> false)
    b

let has_par (p : program) = List.exists (fun f -> block_has_par f.body) p.funcs

let rec has_return (b : block) =
  List.exists
    (fun s ->
      match s.node with
      | Return _ -> true
      | If (_, t, e) -> has_return t || has_return e
      | While (_, body) | For { body; _ } -> has_return body
      | Par blocks -> List.exists has_return blocks
      | _ -> false)
    b

(* A [Break] that would escape the region's own loop: one not nested inside
   a deeper loop of the block. *)
let rec has_toplevel_break (b : block) =
  List.exists
    (fun s ->
      match s.node with
      | Break -> true
      | If (_, t, e) -> has_toplevel_break t || has_toplevel_break e
      | While _ | For _ -> false
      | Par blocks -> List.exists has_toplevel_break blocks
      | _ -> false)
    b
