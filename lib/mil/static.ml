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
  funcs : (string, func) Hashtbl.t;      (* callee lookup by name *)
  regions : region array;
  func_region : (string, int) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
  program_globals : SS.t;
}

let region t id = t.regions.(id)
let func_region t name = Hashtbl.find t.func_region name
let summary t name = Hashtbl.find_opt t.summaries name

let expr_read_vars e acc =
  fold_expr
    (fun acc e -> match e with Var x | Idx (x, _) -> SS.add x acc | _ -> acc)
    acc e

let lhs_written = function Lvar x | Lidx (x, _) -> x

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

(* ---- Statement effects ---- *)

type effects = { fx_reads : SS.t; fx_writes : SS.t; fx_binds : string option }

(* Map a callee summary through a call site: array-parameter effects become
   effects on the actual argument arrays (which may be the caller's params,
   locals, or program globals). Array actuals follow the scalar actuals
   positionally and are written [Var name]. *)
let call_effects funcs summaries (reads, writes) (name, args) =
  match Hashtbl.find_opt funcs name with
  | None -> (reads, writes)
  | Some callee ->
      let sum =
        Option.value (Hashtbl.find_opt summaries name) ~default:empty_summary
      in
      let arr_actuals = List.filteri (fun k _ -> k >= List.length callee.params) args in
      let map_params pset acc =
        if List.compare_lengths arr_actuals callee.arr_params <> 0 then acc
        else
          List.fold_left2
            (fun acc formal actual ->
              match actual with
              | Var a when SS.mem formal pset -> SS.add a acc
              | _ -> acc)
            acc callee.arr_params arr_actuals
      in
      ( map_params sum.sum_pread (SS.union sum.sum_gread reads),
        map_params sum.sum_pwritten (SS.union sum.sum_gwritten writes) )

(* What one statement does itself, nested blocks excluded: the names its
   expressions read (assignment-target indices included), the write of its
   target, and the effects of every call it makes, mapped through the callee
   summaries in [summaries]. A declaration's binder is reported apart from
   the writes: it names a new local, which the caller scopes. *)
let stmt_effects funcs summaries s =
  let reads, calls =
    List.fold_left
      (fold_expr (fun ((reads, calls) as acc) e ->
           match e with
           | Var x | Idx (x, _) -> (SS.add x reads, calls)
           | Call (f, args) -> (reads, (f, args) :: calls)
           | Int _ | Len _ | Bin _ | Neg _ | Not _ -> acc))
      (SS.empty, match s.node with Call_stmt (f, args) -> [ (f, args) ] | _ -> [])
      (stmt_exprs s)
  in
  let writes, binds =
    match s.node with
    | Assign (l, _) | Atomic_assign (l, _) -> (SS.singleton (lhs_written l), None)
    | Free x -> (SS.singleton x, None)
    | Decl (x, _) | Decl_arr (x, _) -> (SS.empty, Some x)
    | If _ | While _ | For _ | Call_stmt _ | Return _ | Break | Par _ | Lock _
    | Unlock _ | Barrier _ ->
        (SS.empty, None)
  in
  let reads, writes =
    List.fold_left (call_effects funcs summaries) (reads, writes) calls
  in
  { fx_reads = reads; fx_writes = writes; fx_binds = binds }

let effects t s = stmt_effects t.funcs t.summaries s

let compute_summaries (p : program) funcs (program_globals : SS.t) :
    (string, summary) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace tbl f.fname empty_summary) p.funcs;
  let summarize f =
    (* A name touched inside [f] contributes to the summary if it is a program
       global or one of [f]'s array parameters; everything else is local. *)
    let classify ~write x s =
      if List.mem x f.arr_params then
        if write then { s with sum_pwritten = SS.add x s.sum_pwritten }
        else { s with sum_pread = SS.add x s.sum_pread }
      else if SS.mem x program_globals && not (List.mem x f.params) then
        if write then { s with sum_gwritten = SS.add x s.sum_gwritten }
        else { s with sum_gread = SS.add x s.sum_gread }
      else s
    in
    let rec block locals acc b = fst (List.fold_left stmt (acc, locals) b)
    and stmt (acc, locals) s =
      let fx = stmt_effects funcs tbl s in
      let visible ~write names acc =
        SS.fold
          (fun x acc -> if SS.mem x locals then acc else classify ~write x acc)
          names acc
      in
      let acc =
        visible ~write:true fx.fx_writes (visible ~write:false fx.fx_reads acc)
      in
      let inner =
        match s.node with For { index; _ } -> SS.add index locals | _ -> locals
      in
      let acc = List.fold_left (block inner) acc (stmt_blocks s) in
      (acc, Option.fold ~none:locals ~some:(fun x -> SS.add x locals) fx.fx_binds)
    in
    block (SS.of_list f.params) empty_summary f.body
  in
  let step () =
    List.fold_left
      (fun changed f ->
        let s' = summarize f in
        if summary_equal (Hashtbl.find tbl f.fname) s' then changed
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
  let funcs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace funcs f.fname f) (List.rev p.funcs);
  let summaries = compute_summaries p funcs program_globals in
  let regions : region list ref = ref [] in
  let n_regions = ref 0 in
  let func_region = Hashtbl.create 16 in
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
  let push_decl x (r : region) =
    let prev = try Hashtbl.find decl_region x with Not_found -> [] in
    Hashtbl.replace decl_region x (r.id :: prev);
    r.locals <- SS.add x r.locals
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
  let note ~write rid x =
    accesses := (write, x, rid, declaring_region x) :: !accesses
  in
  (* The region a nested block of [s] opens; [None] for an empty else arm. *)
  let child_kind s k b =
    match s.node with
    | If _ when k = 1 && b = [] -> None
    | If _ -> Some (Rbranch { arm_then = k = 0 })
    | Par _ -> Some (Rbranch { arm_then = true })
    | While (c, _) ->
        Some (Rloop { index = None; cond_vars = expr_read_vars c SS.empty })
    | For { index; hi; _ } ->
        let cond_vars = expr_read_vars hi (SS.singleton index) in
        Some (Rloop { index = Some index; cond_vars })
    | Decl _ | Decl_arr _ | Assign _ | Atomic_assign _ | Call_stmt _ | Return _
    | Break | Lock _ | Unlock _ | Barrier _ | Free _ ->
        None
  in
  (* [scoped] holds the names declared in the block, popped on exit. *)
  let rec walk_block block (r : region) scoped =
    let scoped =
      List.fold_left
        (fun scoped s ->
          r.last_line <- max r.last_line s.line;
          (match reduction_of_stmt s with
          | Some (x, op) when not (List.mem_assoc x r.reductions) ->
              r.reductions <- (x, op) :: r.reductions
          | _ -> ());
          let fx = stmt_effects funcs summaries s in
          SS.iter (note ~write:false r.id) fx.fx_reads;
          SS.iter (note ~write:true r.id) fx.fx_writes;
          List.iteri
            (fun k b ->
              Option.iter
                (fun kind ->
                  let c =
                    new_region ~kind ~parent:r.id ~depth:(r.depth + 1)
                      ~first_line:s.line ~stmts:b
                  in
                  r.children <- r.children @ [ c.id ];
                  let index =
                    match kind with
                    | Rloop { index; _ } -> index
                    | Rfunc _ | Rbranch _ -> None
                  in
                  Option.iter (fun ix -> push_decl ix c) index;
                  walk_block b c (Option.to_list index);
                  (* §3.2.5: an index written in the body becomes global to it. *)
                  c.index_written_in_body <-
                    Option.fold ~none:false ~some:(block_writes_var b) index;
                  r.last_line <- max r.last_line c.last_line)
                (child_kind s k b))
            (stmt_blocks s);
          match fx.fx_binds with
          | Some x ->
              push_decl x r;
              note ~write:true r.id x;
              x :: scoped
          | None -> scoped)
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
      (* Array params are by-reference: global to the function body. *)
      List.iter (fun x -> push_decl x rf) f.params;
      walk_block f.body rf f.params)
    p.funcs;
  let arr =
    match !regions with
    | [] -> [||]
    | r0 :: _ -> Array.make !n_regions r0
  in
  List.iter (fun r -> arr.(r.id) <- r) !regions;
  all_regions := arr;
  List.iter (fun (write, x, rid, d) -> record_access ~write x rid d) (List.rev !accesses);
  { program = p; funcs; regions = arr; func_region; summaries; program_globals }

(* Variables global to a region, per the paper's definition. *)
let global_vars t rid =
  let r = t.regions.(rid) in
  SS.union r.globals_read r.globals_written

let loop_regions t =
  Array.to_list t.regions
  |> List.filter (fun r -> match r.kind with Rloop _ -> true | _ -> false)

let func_of_region t rid =
  let rec up id = if t.regions.(id).parent < 0 then id else up t.regions.(id).parent in
  match t.regions.(up rid).kind with
  | Rfunc name -> name
  | Rloop _ | Rbranch _ -> assert false
