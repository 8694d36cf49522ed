(* Static analysis over MIL programs.

   This module plays the role of DiscoPoP's compile-time passes: it builds the
   control-region tree (functions, loops, branch arms), classifies variables as
   global or local to each region (§3.2.1), computes interprocedural
   read/write summaries used by the top-down CU construction, and recognises
   reduction statements (needed for DOALL classification, §4.1.1). *)

open Ast
module SS = Set.Make (String)

type region_kind =
  | Rfunc of string
  | Rloop of { index : string option; cond_vars : SS.t }
      (* [index] is [None] for while loops; [cond_vars] are the variables the
         loop condition reads — a carried true dependence on one of them
         controls the iteration space and can never be discounted. *)
  | Rbranch of { arm_then : bool }

type region = {
  id : int;
  kind : region_kind;
  parent : int;                       (* -1 at a function root *)
  depth : int;
  mutable children : int list;        (* in source order *)
  first_line : int;                   (* header line of the construct *)
  mutable last_line : int;            (* last line inside the region *)
  mutable globals_read : SS.t;        (* global-to-region vars read inside *)
  mutable globals_written : SS.t;
  mutable locals : SS.t;              (* vars declared directly in region *)
  mutable reductions : (string * binop) list;
  (* Reduction variables updated at this region's direct level. *)
  mutable index_written_in_body : bool;  (* §3.2.5 loop-index special rule *)
  stmts : block;                      (* direct statements *)
}

(* Interprocedural summary: which program globals and which array parameters a
   function (transitively) reads and writes. Scalar params are by-value. *)
type summary = {
  sum_gread : SS.t;
  sum_gwritten : SS.t;
  sum_pread : SS.t;        (* names of array params read *)
  sum_pwritten : SS.t;
}

type t = {
  program : program;
  regions : region array;
  func_region : (string, int) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
  line_region : (int, int) Hashtbl.t;    (* statement line -> region id *)
  program_globals : SS.t;
}

let region t id = t.regions.(id)
let func_region t name = Hashtbl.find t.func_region name
let summary t name = Hashtbl.find_opt t.summaries name

let rec expr_read_vars e acc =
  match e with
  | Int _ | Len _ -> acc
  | Var x -> SS.add x acc
  | Idx (a, e1) -> expr_read_vars e1 (SS.add a acc)
  | Bin (_, e1, e2) -> expr_read_vars e2 (expr_read_vars e1 acc)
  | Neg e1 | Not e1 -> expr_read_vars e1 acc
  | Call (_, args) -> List.fold_left (fun acc e1 -> expr_read_vars e1 acc) acc args

(* Callees named in an expression, for summary propagation. *)
let rec expr_callees e acc =
  match e with
  | Int _ | Var _ | Len _ -> acc
  | Idx (_, e1) | Neg e1 | Not e1 -> expr_callees e1 acc
  | Bin (_, e1, e2) -> expr_callees e2 (expr_callees e1 acc)
  | Call (f, args) ->
      List.fold_left (fun acc e1 -> expr_callees e1 acc) ((f, args) :: acc) args

let lhs_written = function Lvar x | Lidx (x, _) -> x
let lhs_index_reads = function Lvar _ -> SS.empty | Lidx (_, e) -> expr_read_vars e SS.empty

(* Recognise a reduction statement: [x = x op e] or [a[i] = a[i] op e] with a
   commutative-associative operator, where [e] does not read the reduced
   variable again — [a[i] = a[i] + a[i-1]] is a recurrence, not a reduction. *)
let reduction_of_stmt s =
  let reads_var v e = SS.mem v (expr_read_vars e SS.empty) in
  match s.node with
  | Assign (Lvar x, Bin (op, Var x', e)) when x = x' && is_reduction_op op
                                               && not (reads_var x e) ->
      Some (x, op)
  | Assign (Lvar x, Bin (op, e, Var x')) when x = x' && is_reduction_op op
                                               && not (reads_var x e) ->
      Some (x, op)
  | Assign (Lidx (a, i1), Bin (op, Idx (a', i2), e))
    when a = a' && i1 = i2 && is_reduction_op op && not (reads_var a e)
         && not (reads_var a i1) ->
      Some (a, op)
  | Assign (Lidx (a, i1), Bin (op, e, Idx (a', i2)))
    when a = a' && i1 = i2 && is_reduction_op op && not (reads_var a e)
         && not (reads_var a i1) ->
      Some (a, op)
  | Atomic_assign (Lvar x, Bin (op, Var x', e))
    when x = x' && is_reduction_op op && not (reads_var x e) ->
      Some (x, op)
  | Atomic_assign (Lidx (a, i1), Bin (op, Idx (a', i2), e))
    when a = a' && i1 = i2 && is_reduction_op op && not (reads_var a e)
         && not (reads_var a i1) ->
      Some (a, op)
  | _ -> None

(* Program-wide reduction analysis: variables whose every write statement in
   the whole program is a reduction with a consistent operator (a first write
   outside any loop — plain initialisation — is also allowed). Carried RAW
   dependences on such variables whose sink is one of the reduction lines are
   resolvable by parallel reduction even when the update happens in a callee
   (e.g. a recursive task incrementing a global counter). *)
let reduction_only_vars (p : program) :
    (string, binop * int list (* reduction stmt lines *)) Hashtbl.t =
  let candidates : (string, binop option * int list) Hashtbl.t = Hashtbl.create 16 in
  let disqualify v = Hashtbl.replace candidates v (None, []) in
  let note_reduction v op line =
    match Hashtbl.find_opt candidates v with
    | Some (None, _) -> ()
    | Some (Some op', lines) ->
        if op = op' then Hashtbl.replace candidates v (Some op, line :: lines)
        else disqualify v
    | None -> Hashtbl.replace candidates v (Some op, [ line ])
  in
  let note_plain_write ~in_loop v =
    match (Hashtbl.find_opt candidates v, in_loop) with
    | Some (None, _), _ -> ()
    | _, true -> disqualify v
    | None, false -> ()  (* initialisation before any reduction: fine *)
    | Some _, false -> disqualify v
  in
  let rec stmt ~in_loop s =
    match (reduction_of_stmt s, s.node) with
    | Some (v, op), _ -> note_reduction v op s.line
    | None, (Assign (l, _) | Atomic_assign (l, _)) ->
        note_plain_write ~in_loop (lhs_written l)
    | None, (Decl (x, _) | Decl_arr (x, _)) -> note_plain_write ~in_loop x
    | None, Free x -> note_plain_write ~in_loop x
    | None, (While _ | For _) ->
        List.iter (List.iter (stmt ~in_loop:true)) (stmt_blocks s)
    | None, _ -> List.iter (List.iter (stmt ~in_loop)) (stmt_blocks s)
  in
  List.iter
    (fun f -> List.iter (stmt ~in_loop:false) f.body)
    p.funcs;
  let out = Hashtbl.create 8 in
  Hashtbl.iter
    (fun v entry ->
      match entry with
      | Some op, lines when lines <> [] -> Hashtbl.replace out v (op, lines)
      | _ -> ())
    candidates;
  out

(* ---- Function summaries (fixpoint over the call graph) ---- *)

let empty_summary =
  { sum_gread = SS.empty; sum_gwritten = SS.empty;
    sum_pread = SS.empty; sum_pwritten = SS.empty }

let summary_equal a b =
  SS.equal a.sum_gread b.sum_gread
  && SS.equal a.sum_gwritten b.sum_gwritten
  && SS.equal a.sum_pread b.sum_pread
  && SS.equal a.sum_pwritten b.sum_pwritten

(* Map a callee summary through a call site: array-parameter effects become
   effects on the actual argument arrays (which may be the caller's params,
   locals, or program globals). Actual array arguments in MIL are written as
   [Var name] in the argument list positions that correspond to array params. *)
let apply_call_summary ~callee_sum ~callee ~args =
  let n_scalars = List.length callee.params in
  let arr_actuals =
    (* Array actuals follow the scalar actuals positionally. *)
    List.filteri (fun k _ -> k >= n_scalars) args
    |> List.map (function
         | Var a -> Some a
         | _ -> None)
  in
  let map_params pset =
    List.fold_left2
      (fun acc formal actual ->
        if SS.mem formal pset then
          match actual with Some a -> SS.add a acc | None -> acc
        else acc)
      SS.empty callee.arr_params
      (if List.length arr_actuals = List.length callee.arr_params then arr_actuals
       else List.map (fun _ -> None) callee.arr_params)
  in
  let reads = SS.union callee_sum.sum_gread (map_params callee_sum.sum_pread) in
  let writes = SS.union callee_sum.sum_gwritten (map_params callee_sum.sum_pwritten) in
  (reads, writes)

let compute_summaries (p : program) (program_globals : SS.t) :
    (string, summary) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace tbl f.fname empty_summary) p.funcs;
  let get name = try Hashtbl.find tbl name with Not_found -> empty_summary in
  let classify f name (gr, gw, pr, pw) ~write =
    (* A name touched inside [f] contributes to the summary if it is a program
       global or one of [f]'s array parameters; everything else is local. *)
    if List.mem name f.arr_params then
      if write then (gr, gw, pr, SS.add name pw) else (gr, gw, SS.add name pr, pw)
    else if SS.mem name program_globals && not (List.mem name f.params) then
      if write then (gr, SS.add name gw, pr, pw) else (SS.add name gr, gw, pr, pw)
    else (gr, gw, pr, pw)
  in
  let rec stmt_effects f locals acc s =
    let add_reads e (acc, locals) =
      let acc =
        SS.fold
          (fun x acc -> if SS.mem x locals then acc else classify f x acc ~write:false)
          (expr_read_vars e SS.empty) acc
      in
      let acc =
        List.fold_left
          (fun acc (callee_name, args) ->
            match List.find_opt (fun g -> g.fname = callee_name) p.funcs with
            | None -> acc
            | Some callee ->
                let reads, writes =
                  apply_call_summary ~callee_sum:(get callee_name) ~callee ~args
                in
                let acc =
                  SS.fold
                    (fun x acc ->
                      if SS.mem x locals then acc else classify f x acc ~write:false)
                    reads acc
                in
                SS.fold
                  (fun x acc ->
                    if SS.mem x locals then acc else classify f x acc ~write:true)
                  writes acc)
          acc (expr_callees e [])
      in
      (acc, locals)
    in
    let add_write name (acc, locals) =
      if SS.mem name locals then (acc, locals)
      else (classify f name acc ~write:true, locals)
    in
    match s.node with
    | Decl (x, e) ->
        let acc, _ = add_reads e (acc, locals) in
        (acc, SS.add x locals)
    | Decl_arr (x, e) ->
        let acc, _ = add_reads e (acc, locals) in
        (acc, SS.add x locals)
    | Assign (l, e) | Atomic_assign (l, e) ->
        (acc, locals)
        |> add_reads e
        |> (fun (acc, locals) ->
             SS.fold
               (fun x acc -> if SS.mem x locals then acc else classify f x acc ~write:false)
               (lhs_index_reads l) acc
             |> fun acc -> (acc, locals))
        |> add_write (lhs_written l)
    | Call_stmt (name, args) ->
        add_reads (Call (name, args)) (acc, locals)
    | Return (Some e) -> add_reads e (acc, locals)
    | Return None | Break | Lock _ | Unlock _ | Barrier _ -> (acc, locals)
    | Free x -> add_write x (acc, locals)
    | If (c, t, e) ->
        let acc, locals = add_reads c (acc, locals) in
        let acc = block_effects f locals acc t in
        let acc = block_effects f locals acc e in
        (acc, locals)
    | While (c, body) ->
        let acc, locals = add_reads c (acc, locals) in
        (block_effects f locals acc body, locals)
    | For { index; lo; hi; step; body } ->
        let acc, locals = add_reads lo (acc, locals) in
        let acc, locals = add_reads hi (acc, locals) in
        let acc, locals = add_reads step (acc, locals) in
        (block_effects f (SS.add index locals) acc body, locals)
    | Par blocks ->
        (List.fold_left (fun acc b -> block_effects f locals acc b) acc blocks, locals)
  and block_effects f locals acc block =
    let acc, _ =
      List.fold_left (fun (acc, locals) s -> stmt_effects f locals acc s) (acc, locals) block
    in
    acc
  in
  let step () =
    List.fold_left
      (fun changed f ->
        let locals = SS.of_list f.params in
        let gr, gw, pr, pw =
          block_effects f locals (SS.empty, SS.empty, SS.empty, SS.empty) f.body
        in
        let s' = { sum_gread = gr; sum_gwritten = gw; sum_pread = pr; sum_pwritten = pw } in
        if summary_equal (get f.fname) s' then changed
        else begin
          Hashtbl.replace tbl f.fname s';
          true
        end)
      false p.funcs
  in
  let rec fix n = if step () && n > 0 then fix (n - 1) in
  fix (List.length p.funcs + 4);
  tbl

(* ---- Region tree ---- *)

let analyze (p : program) : t =
  let program_globals =
    List.fold_left
      (fun acc g -> match g with Gscalar (n, _) | Garray (n, _) -> SS.add n acc)
      SS.empty p.globals
  in
  let summaries = compute_summaries p program_globals in
  let regions : region list ref = ref [] in
  let n_regions = ref 0 in
  let func_region = Hashtbl.create 16 in
  let line_region = Hashtbl.create 256 in
  let new_region ~kind ~parent ~depth ~first_line ~stmts =
    let r =
      { id = !n_regions; kind; parent; depth; children = []; first_line;
        last_line = first_line; globals_read = SS.empty;
        globals_written = SS.empty; locals = SS.empty; reductions = [];
        index_written_in_body = false; stmts }
    in
    incr n_regions;
    regions := r :: !regions;
    r
  in
  (* [decl_region] maps a variable name to the region stack of its current
     declaration; shadowing pushes, region exit pops. *)
  let decl_region : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  let push_decl x rid =
    let prev = try Hashtbl.find decl_region x with Not_found -> [] in
    Hashtbl.replace decl_region x (rid :: prev)
  in
  let pop_decl x =
    match Hashtbl.find_opt decl_region x with
    | Some (_ :: rest) -> Hashtbl.replace decl_region x rest
    | _ -> ()
  in
  let declaring_region x =
    match Hashtbl.find_opt decl_region x with Some (r :: _) -> r | _ -> -1
    (* -1: program-global (or undeclared, treated as global) *)
  in
  (* Record an access to [x] made while inside region [rid]: [x] is global to
     every region from [rid] up to (and excluding) its declaring region.
     The declaring region is resolved at note time (scope pops would corrupt a
     later lookup); the upward walk is replayed once the region array exists. *)
  let all_regions = ref [||] in
  let record_access ~write x rid d =
    let rec up id =
      if id <> d && id >= 0 then begin
        let r = (!all_regions).(id) in
        if write then r.globals_written <- SS.add x r.globals_written
        else r.globals_read <- SS.add x r.globals_read;
        up r.parent
      end
    in
    up rid
  in
  (* First pass: build the region tree and collect locals; record accesses in
     a worklist to replay once the array is available. *)
  let accesses : (bool * string * int * int) list ref = ref [] in
  let note ~write x rid =
    accesses := (write, x, rid, declaring_region x) :: !accesses
  in
  let note_expr e rid =
    SS.iter (fun x -> note ~write:false x rid) (expr_read_vars e SS.empty);
    List.iter
      (fun (callee_name, args) ->
        match List.find_opt (fun g -> g.fname = callee_name) p.funcs with
        | None -> ()
        | Some callee ->
            let callee_sum =
              try Hashtbl.find summaries callee_name with Not_found -> empty_summary
            in
            let reads, writes = apply_call_summary ~callee_sum ~callee ~args in
            SS.iter (fun x -> note ~write:false x rid) reads;
            SS.iter (fun x -> note ~write:true x rid) writes)
      (expr_callees e [])
  in
  let rec walk_block block (r : region) scoped =
    (* [scoped] accumulates names declared in this block, popped on exit. *)
    let scoped =
      List.fold_left
        (fun scoped s ->
          Hashtbl.replace line_region s.line r.id;
          r.last_line <- max r.last_line s.line;
          (match reduction_of_stmt s with
          | Some (x, op) when not (List.mem_assoc x r.reductions) ->
              r.reductions <- (x, op) :: r.reductions
          | _ -> ());
          match s.node with
          | Decl (x, e) | Decl_arr (x, e) ->
              note_expr e r.id;
              push_decl x r.id;
              r.locals <- SS.add x r.locals;
              note ~write:true x r.id;
              x :: scoped
          | Assign (l, e) | Atomic_assign (l, e) ->
              note_expr e r.id;
              note_expr (match l with Lvar _ -> Int 0 | Lidx (_, ie) -> ie) r.id;
              note ~write:true (lhs_written l) r.id;
              scoped
          | Call_stmt (name, args) ->
              note_expr (Call (name, args)) r.id;
              scoped
          | Return (Some e) ->
              note_expr e r.id;
              scoped
          | Return None | Break | Lock _ | Unlock _ | Barrier _ -> scoped
          | Free x ->
              note ~write:true x r.id;
              scoped
          | If (c, t, e) ->
              note_expr c r.id;
              let rt =
                new_region ~kind:(Rbranch { arm_then = true }) ~parent:r.id
                  ~depth:(r.depth + 1) ~first_line:s.line ~stmts:t
              in
              r.children <- r.children @ [ rt.id ];
              walk_block t rt [];
              r.last_line <- max r.last_line rt.last_line;
              if e <> [] then begin
                let re =
                  new_region ~kind:(Rbranch { arm_then = false }) ~parent:r.id
                    ~depth:(r.depth + 1) ~first_line:s.line ~stmts:e
                in
                r.children <- r.children @ [ re.id ];
                walk_block e re [];
                r.last_line <- max r.last_line re.last_line
              end;
              scoped
          | While (c, body) ->
              note_expr c r.id;
              let rl =
                new_region
                  ~kind:(Rloop { index = None; cond_vars = expr_read_vars c SS.empty })
                  ~parent:r.id ~depth:(r.depth + 1) ~first_line:s.line ~stmts:body
              in
              r.children <- r.children @ [ rl.id ];
              walk_block body rl [];
              r.last_line <- max r.last_line rl.last_line;
              scoped
          | For { index; lo; hi; step; body } ->
              note_expr lo r.id;
              note_expr hi r.id;
              note_expr step r.id;
              let cond_vars = expr_read_vars hi (SS.singleton index) in
              let rl =
                new_region ~kind:(Rloop { index = Some index; cond_vars })
                  ~parent:r.id ~depth:(r.depth + 1) ~first_line:s.line ~stmts:body
              in
              r.children <- r.children @ [ rl.id ];
              push_decl index rl.id;
              rl.locals <- SS.add index rl.locals;
              walk_block body rl [];
              pop_decl index;
              (* §3.2.5: an index written in the body becomes global to it. *)
              rl.index_written_in_body <- block_writes_var body index;
              r.last_line <- max r.last_line rl.last_line;
              scoped
          | Par blocks ->
              List.iter
                (fun b ->
                  let rb =
                    new_region ~kind:(Rbranch { arm_then = true }) ~parent:r.id
                      ~depth:(r.depth + 1) ~first_line:s.line ~stmts:b
                  in
                  r.children <- r.children @ [ rb.id ];
                  walk_block b rb [];
                  r.last_line <- max r.last_line rb.last_line)
                blocks;
              scoped)
        scoped block
    in
    List.iter pop_decl scoped
  and block_writes_var block x =
    exists_block
      (fun s ->
        match s.node with
        | Assign (l, _) | Atomic_assign (l, _) -> lhs_written l = x
        | _ -> false)
      block
  in
  List.iter
    (fun f ->
      let rf =
        new_region ~kind:(Rfunc f.fname) ~parent:(-1) ~depth:0
          ~first_line:f.fline ~stmts:f.body
      in
      Hashtbl.replace func_region f.fname rf.id;
      Hashtbl.replace line_region f.fline rf.id;
      List.iter (fun x -> push_decl x rf.id) f.params;
      rf.locals <- SS.union rf.locals (SS.of_list f.params);
      (* Array params are by-reference: global to the function body. *)
      walk_block f.body rf [];
      List.iter pop_decl f.params)
    p.funcs;
  let arr =
    match !regions with
    | [] -> [||]
    | r0 :: _ -> Array.make !n_regions r0
  in
  List.iter (fun r -> arr.(r.id) <- r) !regions;
  all_regions := arr;
  List.iter (fun (write, x, rid, d) -> record_access ~write x rid d) (List.rev !accesses);
  { program = p; regions = arr; func_region; summaries; line_region;
    program_globals }

(* Variables global to a region, per the paper's definition. *)
let global_vars t rid =
  let r = t.regions.(rid) in
  SS.union r.globals_read r.globals_written

let region_of_line t line = Hashtbl.find_opt t.line_region line

(* Enclosing loop regions of a region, innermost first. *)
let enclosing_loops t rid =
  let rec up id acc =
    if id < 0 then List.rev acc
    else
      let r = t.regions.(id) in
      let acc = match r.kind with Rloop _ -> r :: acc | _ -> acc in
      up r.parent acc
  in
  List.rev (up rid [])

let loop_regions t =
  Array.to_list t.regions
  |> List.filter (fun r -> match r.kind with Rloop _ -> true | _ -> false)

let func_of_region t rid =
  let rec up id = if t.regions.(id).parent < 0 then id else up t.regions.(id).parent in
  match t.regions.(up rid).kind with
  | Rfunc name -> name
  | Rloop _ | Rbranch _ -> assert false
