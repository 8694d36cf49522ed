(* Abstract syntax of MIL, the mini imperative language that stands in for
   C/C++-compiled-to-LLVM-IR in this reproduction.

   MIL deliberately mirrors the subset of program structure that matters to
   DiscoPoP: scalar and array memory accesses with source locations, nested
   control regions (functions, loops, branches), function calls, and
   explicitly-locked thread parallelism.  Values are machine integers; the
   dependence structure of a program does not depend on the value domain. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Band | Bor | Bxor | Shl | Shr
  | Min | Max

type expr =
  | Int of int
  | Var of string                 (* scalar read *)
  | Idx of string * expr          (* array element read: a[e] *)
  | Len of string                 (* array length; no memory access *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr
  | Call of string * expr list    (* call for value *)

type lhs =
  | Lvar of string                (* scalar write *)
  | Lidx of string * expr         (* array element write *)

(* Statements carry a [line] filled in by {!Builder.number}: a global,
   pre-order source-line number, playing the role of fileID:lineID. *)
type stmt = { mutable line : int; node : node }

and node =
  | Decl of string * expr              (* scalar local declaration *)
  | Decl_arr of string * expr          (* local array of given size, zeroed *)
  | Assign of lhs * expr
  | If of expr * block * block
  | While of expr * block
  | For of for_loop
  | Call_stmt of string * expr list    (* call for effect *)
  | Return of expr option
  | Break
  | Par of block list                  (* fork blocks as threads, join all *)
  | Lock of string                     (* named mutex *)
  | Unlock of string
  | Barrier of string                  (* all threads of the par group wait *)
  | Free of string                     (* explicit array deallocation *)
  | Atomic_assign of lhs * expr        (* lock-free atomic update *)

and for_loop = { index : string; lo : expr; hi : expr; step : expr; body : block }
(* for index = lo; index < hi; index += step *)

and block = stmt list

type func = {
  fname : string;
  params : string list;       (* scalar parameters, passed by value *)
  arr_params : string list;   (* array parameters, passed by reference *)
  body : block;
  mutable fline : int;        (* line of the function header *)
}

type global =
  | Gscalar of string * int   (* name, initial value *)
  | Garray of string * int    (* name, size (zero-initialised) *)

type program = {
  pname : string;
  globals : global list;
  funcs : func list;
  entry : string;             (* name of the entry function *)
}

(* ---- the walker ----

   The tree's shape, described once: which sub-expressions an expression
   has, which expressions a statement evaluates itself and which blocks it
   nests. The syntactic readers and rewriters of MIL are built on these;
   walks where the order of bindings matters (propagation environments,
   region scopes) recurse by hand and take their default case from
   [map_stmt]. *)

let fold_sub_exprs f acc = function
  | Int _ | Var _ | Len _ -> acc
  | Idx (_, e) | Neg e | Not e -> f acc e
  | Bin (_, a, b) -> f (f acc a) b
  | Call (_, args) -> List.fold_left f acc args

let map_sub_exprs f = function
  | (Int _ | Var _ | Len _) as e -> e
  | Idx (a, e) -> Idx (a, f e)
  | Neg e -> Neg (f e)
  | Not e -> Not (f e)
  | Bin (op, a, b) ->
      let a = f a in
      Bin (op, a, f b)
  | Call (g, args) -> Call (g, List.map f args)

let fold_expr f acc e =
  let rec go acc e = fold_sub_exprs go (f acc e) e in
  go acc e

let exists_expr p e =
  let rec go hit e = hit || p e || fold_sub_exprs go false e in
  go false e

let rec map_expr f e = f (map_sub_exprs (map_expr f) e)

let stmt_exprs s =
  match s.node with
  | Decl (_, e) | Decl_arr (_, e) | Return (Some e)
  | Assign (Lvar _, e) | Atomic_assign (Lvar _, e) ->
      [ e ]
  | Assign (Lidx (_, i), e) | Atomic_assign (Lidx (_, i), e) -> [ i; e ]
  | If (c, _, _) | While (c, _) -> [ c ]
  | For { lo; hi; step; _ } -> [ lo; hi; step ]
  | Call_stmt (_, args) -> args
  | Return None | Break | Par _ | Lock _ | Unlock _ | Barrier _ | Free _ -> []

let stmt_blocks s =
  match s.node with
  | If (_, t, e) -> [ t; e ]
  | While (_, b) | For { body = b; _ } -> [ b ]
  | Par arms -> arms
  | Decl _ | Decl_arr _ | Assign _ | Atomic_assign _ | Call_stmt _ | Return _
  | Break | Lock _ | Unlock _ | Barrier _ | Free _ ->
      []

(* Children are mapped left to right, expressions before blocks, so a
   stateful [expr] or [block] sees them in source order. *)
let map_stmt ?(expr = Fun.id) ?(block = Fun.id) s =
  let assign l e =
    match l with
    | Lvar _ -> (l, expr e)
    | Lidx (a, i) ->
        let i = expr i in
        (Lidx (a, i), expr e)
  in
  let node =
    match s.node with
    | Decl (x, e) -> Decl (x, expr e)
    | Decl_arr (x, e) -> Decl_arr (x, expr e)
    | Assign (l, e) ->
        let l, e = assign l e in
        Assign (l, e)
    | Atomic_assign (l, e) ->
        let l, e = assign l e in
        Atomic_assign (l, e)
    | If (c, t, e) ->
        let c = expr c in
        let t = block t in
        If (c, t, block e)
    | While (c, b) ->
        let c = expr c in
        While (c, block b)
    | For f ->
        let lo = expr f.lo in
        let hi = expr f.hi in
        let step = expr f.step in
        For { f with lo; hi; step; body = block f.body }
    | Call_stmt (g, args) -> Call_stmt (g, List.map expr args)
    | Return (Some e) -> Return (Some (expr e))
    | Par arms -> Par (List.map block arms)
    | (Return None | Break | Lock _ | Unlock _ | Barrier _ | Free _) as n -> n
  in
  { line = s.line; node }

let rec fold_block f acc b =
  List.fold_left
    (fun acc s -> List.fold_left (fold_block f) (f acc s) (stmt_blocks s))
    acc b

let rec exists_block p b =
  List.exists (fun s -> p s || List.exists (exists_block p) (stmt_blocks s)) b

let rec map_block f b = List.map (fun s -> map_stmt ~block:(map_block f) (f s)) b

let find_func program name =
  match List.find_opt (fun f -> f.fname = name) program.funcs with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "MIL: unknown function %s" name)

(* ---- builtins and synchronisation ----

   The callees [Compile.call] evaluates itself when no user function has
   their name, and what the analyses ask of each. *)
type builtin = Rand | Abs | Print

let builtin = function
  | "rand" -> Some Rand
  | "abs" -> Some Abs
  | "print" -> Some Print
  | _ -> None

let is_builtin name = Option.is_some (builtin name)
let draws name = builtin name = Some Rand
let prints name = builtin name = Some Print
let pure_builtin name = builtin name = Some Abs

let is_sync s =
  match s.node with Lock _ | Unlock _ | Barrier _ -> true | _ -> false

(* Reduction operators: loop-carried RAW dependences over these are resolvable
   by parallel reduction and must not block DOALL classification (§4.1.1). *)
let is_reduction_op = function
  | Add | Mul | Min | Max | Band | Bor | Bxor -> true
  | Sub | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or | Shl | Shr -> false

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Min -> "min" | Max -> "max"
