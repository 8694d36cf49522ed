(* A small DSL for constructing MIL programs in OCaml source, plus the
   line-numbering pass that assigns every statement a unique source line in
   pre-order.  Workloads build their kernels with this module. *)

open Ast

(* Plain integer arithmetic, for size computations in builder code (the
   expression operators below shadow the Stdlib ones). *)
let ( +$ ) = Stdlib.( + )
let ( -$ ) = Stdlib.( - )
let ( *$ ) = Stdlib.( * )
let ( /$ ) = Stdlib.( / )

(* Expressions *)
let i n = Int n
let v x = Var x
let ( .%[] ) a e = Idx (a, e)
let len a = Len a
let ( + ) a b = Bin (Add, a, b)
let ( - ) a b = Bin (Sub, a, b)
let ( * ) a b = Bin (Mul, a, b)
let ( / ) a b = Bin (Div, a, b)
let ( % ) a b = Bin (Mod, a, b)
let ( == ) a b = Bin (Eq, a, b)
let ( != ) a b = Bin (Ne, a, b)
let ( < ) a b = Bin (Lt, a, b)
let ( <= ) a b = Bin (Le, a, b)
let ( > ) a b = Bin (Gt, a, b)
let ( >= ) a b = Bin (Ge, a, b)
let ( && ) a b = Bin (And, a, b)
let ( || ) a b = Bin (Or, a, b)
let ( land ) a b = Bin (Band, a, b)
let ( lor ) a b = Bin (Bor, a, b)
let ( lxor ) a b = Bin (Bxor, a, b)
let ( lsl ) a b = Bin (Shl, a, b)
let ( lsr ) a b = Bin (Shr, a, b)
let min_ a b = Bin (Min, a, b)
let max_ a b = Bin (Max, a, b)
let neg a = Neg a
let not_ a = Not a
let call f args = Call (f, args)

(* Statements; [line] is patched by {!number}. *)
let stmt node = { line = 0; node }
let decl x e = stmt (Decl (x, e))
let decl_arr x n = stmt (Decl_arr (x, n))
let set x e = stmt (Assign (Lvar x, e))
let seti a idx e = stmt (Assign (Lidx (a, idx), e))
let atomic_set x e = stmt (Atomic_assign (Lvar x, e))
let atomic_seti a idx e = stmt (Atomic_assign (Lidx (a, idx), e))
let if_ c t e = stmt (If (c, t, e))
let when_ c t = stmt (If (c, t, []))
let while_ c body = stmt (While (c, body))

let for_ index lo hi body =
  stmt (For { index; lo; hi; step = Int 1; body })

let for_step index lo hi step body = stmt (For { index; lo; hi; step; body })
let call_ f args = stmt (Call_stmt (f, args))
let return e = stmt (Return (Some e))
let return_unit = stmt (Return None)
let break_ = stmt Break
let par blocks = stmt (Par blocks)
let lock m = stmt (Lock m)
let unlock m = stmt (Unlock m)
let barrier m = stmt (Barrier m)
let free a = stmt (Free a)

(* Common idiom: increment a scalar. *)
let incr x = set x (v x + i 1)

let func ?(params = []) ?(arrays = []) fname body =
  { fname; params; arr_params = arrays; body; fline = 0 }

let gscalar name value = Gscalar (name, value)
let garray name size = Garray (name, size)

let program ?(globals = []) ~entry pname funcs =
  { pname; globals; funcs; entry }

(* Pre-order line numbering.  Functions get the line of their header; each
   statement a fresh line; nested blocks are numbered inside their parent so
   that a region's statements occupy a contiguous line interval — the property
   DiscoPoP's [BGN]/[END] region reporting relies on. *)
let number (p : program) : program =
  let next = ref 1 in
  let fresh () =
    let n = !next in
    next := Stdlib.( + ) n 1;
    n
  in
  List.iter
    (fun f ->
      f.fline <- fresh ();
      fold_block (fun () s -> s.line <- fresh ()) () f.body)
    p.funcs;
  p
