(* The staged MIL evaluator core (see compile.mli).

   A program is lowered once per run: every function body becomes a tree of
   [frame -> unit] statement closures over [frame -> int] expression
   closures. Names are resolved while lowering — a local to a slot of the
   function's frame, a global to its fixed address, a callee to its
   compiled body — so nothing is looked up by string at run time.

   A frame is an [int array] of slots, two words each: address (or array
   base), and array length, [0] for a scalar. An unbound slot holds
   address [-1]. Leaving a block frees the slots declared in it; no scope
   table is copied or compared.

   Lowering also decides what it already knows about each node, so a run
   does not: a reference's closure is specialised to its binding's kind,
   an operator's to the operator and to a constant right operand, a
   comparison that is a branch's or loop's condition is tested as a
   boolean, and a call writes its arguments straight into the callee's
   slots. *)

open Ast
module Intern = Trace.Intern

exception Runtime_error of string
exception Cancelled
exception Returned
exception Break_exc

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

module Rng = struct
  type t = { mutable s : int }

  let default_seed = 42

  let create seed = { s = (if seed = 0 then 0x9e3779b9 else seed) }

  let next t =
    let s = t.s in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    t.s <- s land max_int;
    t.s

  let int t bound = if bound <= 0 then 0 else next t mod bound
  let draw t bound = if bound = 0 then next t land 0xFFFF else int t bound
end

let truthy n = n <> 0

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Mod -> if b = 0 then 0 else a mod b
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | And -> if truthy a && truthy b then 1 else 0
  | Or -> if truthy a || truthy b then 1 else 0
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)
  | Min -> min a b
  | Max -> max a b

(* Freed addresses, reused before fresh memory: scalars last freed first,
   arrays by exact length, last freed first. This decides which addresses
   a program reuses, so both evaluators share it. The scalars are an int
   stack, [scalars.(0 .. n - 1)], top last. *)
module Recycle = struct
  type t = {
    mutable scalars : int array;
    mutable n : int;
    arrays : (int, int list) Hashtbl.t;
  }

  let create () = { scalars = [||]; n = 0; arrays = Hashtbl.create 8 }

  (* a freed address of that length, or -1 *)
  let take t len =
    if len = 0 then
      if t.n = 0 then -1
      else begin
        t.n <- t.n - 1;
        Array.unsafe_get t.scalars t.n
      end
    else
      match Hashtbl.find_opt t.arrays len with
      | Some (b :: rest) ->
          Hashtbl.replace t.arrays len rest;
          b
      | _ -> -1

  let give t a len =
    if len = 0 then begin
      if t.n = Array.length t.scalars then begin
        let s = Array.make (max 8 (2 * t.n)) 0 in
        Array.blit t.scalars 0 s 0 t.n;
        t.scalars <- s
      end;
      Array.unsafe_set t.scalars t.n a;
      t.n <- t.n + 1
    end
    else
      Hashtbl.replace t.arrays len
        (a :: Option.value (Hashtbl.find_opt t.arrays len) ~default:[])
end

(* Lock, unlock or barrier anywhere in the blocks, nested [Par] bodies and
   the bodies of every function they reach included. *)
let syncs prog blocks =
  let direct = exists_block is_sync in
  let b = List.concat blocks in
  direct b
  ||
  let reached = Rewrite.reachable_calls prog b in
  List.exists (fun f -> List.mem f.fname reached && direct f.body) prog.funcs

module type BACKEND = sig
  type ctx
  type loop

  val read : ctx -> int -> int -> int -> int
  val write : ctx -> int -> int -> int -> int -> unit
  val peek : ctx -> int -> int
  val poke : ctx -> int -> int -> unit
  val recycled : ctx -> Recycle.t
  val fresh : ctx -> int -> int
  val dealloc : ctx -> (int * int * string) list -> unit
  val stmt : ctx -> unit
  val enter : ctx -> func -> int -> unit
  val entered : ctx -> unit
  val leave : ctx -> func -> unit
  val loop_enter : ctx -> int -> loop
  val loop_head : ctx -> loop -> int -> unit
  val loop_body : ctx -> loop -> int -> unit
  val loop_exit : ctx -> loop -> int -> unit
  val rand : ctx -> int -> int
  val print : ctx -> int list -> unit
  val lock : ctx -> string -> unit
  val unlock : ctx -> string -> unit
  val barrier : ctx -> string -> unit
  val atomic : ctx -> 'f -> ('f -> int) -> ('f -> int) -> int -> int -> unit
  val par : ctx -> bool -> (ctx -> unit) list -> unit
end

module Make (B : BACKEND) = struct
  (* [ret] is where a [return] leaves its value before raising [Returned]. *)
  type frame = { slots : int array; ctx : B.ctx; mutable ret : int }

  (* [len = 0] is a scalar cell, otherwise a zeroed array *)
  let alloc ctx len =
    match Recycle.take (B.recycled ctx) len with
    | -1 -> B.fresh ctx (max len 1)
    | a ->
        for i = a to a + len - 1 do
          B.poke ctx i 0
        done;
        a

  let free ctx a len = Recycle.give (B.recycled ctx) a len

  (* Where a name resolves: a frame slot (with what the name means when
     the slot is unbound), a global's fixed (address, length), or nothing —
     an error if the reference ever runs. *)
  type var = Slot of int * var | Global of int * int | Unbound

  type fn = { ast : func; mutable nslots : int; mutable body : frame -> unit }

  (* A block being lowered. [names] maps a name declared here to its slot;
     [all] are those (slot, name) pairs and those of the blocks nested in
     it. *)
  type scope = {
    up : scope option;
    mutable names : (string * int) list;
    mutable all : (int * string) list;
  }

  type lowering = {
    prog : program;
    globals : (string, int * int) Hashtbl.t;
    funcs : (string, fn) Hashtbl.t;
    deallocs : bool;
    mutable locks : string list;
    mutable nslots : int;
  }

  type t = { lw : lowering; entry : fn }

  let scope up = { up; names = []; all = [] }
  let sym = Intern.Sym.intern

  let new_slot lw =
    lw.nslots <- lw.nslots + 1;
    lw.nslots - 1

  (* A redeclaration in the same block reuses the slot: the earlier address
     leaks, as a C compiler's shadowed stack slot would. *)
  let declare lw sc x =
    match List.assoc_opt x sc.names with
    | Some k -> k
    | None ->
        let k = new_slot lw in
        sc.names <- (x, k) :: sc.names;
        sc.all <- (k, x) :: sc.all;
        k

  let lookup lw sc x =
    let rec local sc =
      match List.assoc_opt x sc.names with
      | Some k -> Some k
      | None -> Option.bind sc.up local
    in
    let g =
      match Hashtbl.find_opt lw.globals x with
      | Some (a, l) -> Global (a, l)
      | None -> Unbound
    in
    match local sc with Some k -> Slot (k, g) | None -> g

  (* The generic binding: the address (an array's base) [x] is bound to,
     and its length, 0 for a scalar. *)
  let rec address f v x =
    match v with
    | Slot (k, unbound) ->
        let a = Array.unsafe_get f.slots (2 * k) in
        if a < 0 then address f unbound x else a
    | Global (a, _) -> a
    | Unbound -> error "unbound variable %s" x

  let rec length f v x =
    match v with
    | Slot (k, unbound) ->
        if Array.unsafe_get f.slots (2 * k) < 0 then length f unbound x
        else Array.unsafe_get f.slots ((2 * k) + 1)
    | Global (_, len) -> len
    | Unbound -> error "unbound variable %s" x

  (* Checked address of element [idx] of array [a]. *)
  let elem f v a line idx =
    let b = address f v a in
    let len = length f v a in
    if len = 0 then error "%s is not an array (line %d)" a line;
    if idx < 0 || idx >= len then
      error "index %d out of bounds for %s (len %d) at line %d" idx a len line;
    b + idx

  (* A reference is lowered to a closure specialised to its binding's
     kind: a global scalar's address, a global array's base and length are
     constants, a bound slot's are read in place. Everything else — an
     unbound slot (a freed local shadowing a global), the wrong kind, an
     index out of bounds — takes the generic binding, which resolves or
     raises. *)

  (* [x]'s value: a scalar's contents, an array's base. *)
  let load v x s line : frame -> int =
    let generic f =
      let a = address f v x in
      if length f v x = 0 then B.read f.ctx a s line else a
    in
    match v with
    | Global (a, 0) -> fun f -> B.read f.ctx a s line
    | Slot (k, _) ->
        let i = 2 * k in
        fun f ->
          let a = Array.unsafe_get f.slots i in
          if a >= 0 && Array.unsafe_get f.slots (i + 1) = 0 then
            B.read f.ctx a s line
          else generic f
    | Global _ | Unbound -> generic

  (* The address of [x[i]], [i] evaluated by [ci] first. *)
  let element v x line (ci : frame -> int) : frame -> int =
    match v with
    | Global (b, len) when len > 0 ->
        fun f ->
          let i = ci f in
          if i >= 0 && i < len then b + i else elem f v x line i
    | Slot (k, _) ->
        let j = 2 * k in
        fun f ->
          let i = ci f in
          let b = Array.unsafe_get f.slots j in
          if b >= 0 && i >= 0 && i < Array.unsafe_get f.slots (j + 1) then b + i
          else elem f v x line i
    | Global _ | Unbound -> fun f -> elem f v x line (ci f)

  (* The address an assignment to scalar [x] writes. *)
  let scalar_target v x line : frame -> int =
    let generic f =
      let a = address f v x in
      if length f v x > 0 then error "cannot assign to array %s (line %d)" x line;
      a
    in
    match v with
    | Global (a, 0) -> fun _ -> a
    | Slot (k, _) ->
        let i = 2 * k in
        fun f ->
          let a = Array.unsafe_get f.slots i in
          if a >= 0 && Array.unsafe_get f.slots (i + 1) = 0 then a else generic f
    | Global _ | Unbound -> generic

  (* An array argument: its base and length into the callee's slot pair
     at [i]. *)
  let array_arg lw sc fname (arg : expr) : frame -> int array -> int -> unit =
    match arg with
    | Var x ->
        let v = lookup lw sc x in
        fun f slots i ->
          let b = address f v x in
          let len = length f v x in
          if len = 0 then error "call %s: %s is not an array" fname x;
          slots.(i) <- b;
          slots.(i + 1) <- len
    | _ -> fun _ _ _ -> error "call %s: array arguments must be variables" fname

  (* [Bin]: one closure per operator, the left operand evaluated first, and
     one per operator over a constant right operand. The rare operators
     fall back to [apply_binop], which defines them all. *)
  let binop op (x : frame -> int) (y : frame -> int) : frame -> int =
    match op with
    | Add -> fun f -> let a = x f in a + y f
    | Sub -> fun f -> let a = x f in a - y f
    | Mul -> fun f -> let a = x f in a * y f
    | Eq -> fun f -> let a = x f in Bool.to_int (a = y f)
    | Ne -> fun f -> let a = x f in Bool.to_int (a <> y f)
    | Lt -> fun f -> let a = x f in Bool.to_int (a < y f)
    | Le -> fun f -> let a = x f in Bool.to_int (a <= y f)
    | Gt -> fun f -> let a = x f in Bool.to_int (a > y f)
    | Ge -> fun f -> let a = x f in Bool.to_int (a >= y f)
    | Band -> fun f -> let a = x f in a land y f
    | op -> fun f -> let a = x f in apply_binop op a (y f)

  let binop_const op (x : frame -> int) n : frame -> int =
    match op with
    | Add -> fun f -> x f + n
    | Sub -> fun f -> x f - n
    | Mul -> fun f -> x f * n
    | Div when n <> 0 -> fun f -> x f / n
    | Mod when n <> 0 -> fun f -> x f mod n
    | Eq -> fun f -> Bool.to_int (x f = n)
    | Ne -> fun f -> Bool.to_int (x f <> n)
    | Lt -> fun f -> Bool.to_int (x f < n)
    | Le -> fun f -> Bool.to_int (x f <= n)
    | Gt -> fun f -> Bool.to_int (x f > n)
    | Ge -> fun f -> Bool.to_int (x f >= n)
    | Band -> fun f -> x f land n
    | Shl -> let n = n land 63 in fun f -> x f lsl n
    | Shr -> let n = n land 63 in fun f -> x f lsr n
    | op -> fun f -> apply_binop op (x f) n

  (* The same as a branch's or loop's condition: a comparison is tested as
     a boolean, any other operator's value against 0. *)
  let test op (x : frame -> int) (y : frame -> int) : frame -> bool =
    match op with
    | Eq -> fun f -> let a = x f in a = y f
    | Ne -> fun f -> let a = x f in a <> y f
    | Lt -> fun f -> let a = x f in a < y f
    | Le -> fun f -> let a = x f in a <= y f
    | Gt -> fun f -> let a = x f in a > y f
    | Ge -> fun f -> let a = x f in a >= y f
    | op ->
        let c = binop op x y in
        fun f -> c f <> 0

  let test_const op (x : frame -> int) n : frame -> bool =
    match op with
    | Eq -> fun f -> x f = n
    | Ne -> fun f -> x f <> n
    | Lt -> fun f -> x f < n
    | Le -> fun f -> x f <= n
    | Gt -> fun f -> x f > n
    | Ge -> fun f -> x f >= n
    | op ->
        let c = binop_const op x n in
        fun f -> c f <> 0

  (* Both operands of every binary operator are evaluated, left first:
     short-circuiting would hide reads. *)
  let rec expr lw sc line (e : expr) : frame -> int =
    match e with
    | Int n -> fun _ -> n
    | Var x -> load (lookup lw sc x) x (sym x) line
    | Idx (a, ie) ->
        let addr = element (lookup lw sc a) a line (expr lw sc line ie) in
        let s = sym a in
        fun f -> B.read f.ctx (addr f) s line
    | Len a ->
        let v = lookup lw sc a in
        fun f ->
          let len = length f v a in
          if len = 0 then error "%s is not an array (line %d)" a line;
          len
    | Bin (op, e1, Int n) -> binop_const op (expr lw sc line e1) n
    | Bin (op, e1, e2) -> binop op (expr lw sc line e1) (expr lw sc line e2)
    | Neg e1 ->
        let c = expr lw sc line e1 in
        fun f -> -c f
    | Not e1 ->
        let c = expr lw sc line e1 in
        fun f -> if c f <> 0 then 0 else 1
    | Call (name, args) -> call lw sc line name args

  and cond lw sc line (e : expr) : frame -> bool =
    match e with
    | Bin (op, e1, Int n) -> test_const op (expr lw sc line e1) n
    | Bin (op, e1, e2) -> test op (expr lw sc line e1) (expr lw sc line e2)
    | Not e1 ->
        let t = cond lw sc line e1 in
        fun f -> not (t f)
    | e ->
        let c = expr lw sc line e in
        fun f -> c f <> 0

  and call lw sc line name args : frame -> int =
    let ex = expr lw sc line in
    match (Hashtbl.find_opt lw.funcs name, builtin name, args) with
    | Some g, _, _ -> user_call lw sc line g args
    | None, Some Rand, [ b ] ->
        let c = ex b in
        fun f ->
          let b = c f in
          B.rand f.ctx (max b 1)
    | None, Some Rand, [] -> fun f -> B.rand f.ctx 0
    | None, Some Abs, [ e ] ->
        let c = ex e in
        fun f -> abs (c f)
    | None, Some Print, _ ->
        let cs = List.map ex args in
        fun f ->
          B.print f.ctx (List.map (fun c -> c f) cs);
          0
    | None, _, _ -> fun _ -> error "unknown function %s (line %d)" name line

  (* Scalars are passed by value into fresh cells, written at the callee's
     header line; arrays by reference, under the callee's parameter name.
     The callee's slot array holds its [nslots] pairs, then the parameter
     cells' addresses, which the return frees whatever the body did to its
     slots. The arguments are evaluated left to right into the slots. *)
  and user_call lw sc line g args : frame -> int =
    let fname = g.ast.fname in
    let psyms = Array.of_list (List.map sym g.ast.params) in
    let np = Array.length psyms and na = List.length g.ast.arr_params in
    let nargs = List.length args in
    if nargs <> np + na then fun _ ->
      error "call %s: expected %d scalar and %d array args, got %d (line %d)"
        fname np na nargs line
    else
      let scalars = Array.of_list (List.filteri (fun j _ -> j < np) args) in
      let scalars = Array.map (expr lw sc line) scalars in
      let arrays =
        List.filteri (fun j _ -> j >= np) args
        |> List.map (array_arg lw sc fname)
        |> Array.of_list
      in
      let fline = g.ast.fline in
      fun f ->
        let ctx = f.ctx in
        let cells = 2 * g.nslots in
        let slots = Array.make (cells + np) (-1) in
        for j = 0 to np - 1 do
          slots.(2 * j) <- scalars.(j) f
        done;
        for j = 0 to na - 1 do
          arrays.(j) f slots (2 * (np + j))
        done;
        B.enter ctx g.ast line;
        for j = 0 to np - 1 do
          let a = alloc ctx 0 in
          B.write ctx a psyms.(j) fline slots.(2 * j);
          slots.(2 * j) <- a;
          slots.((2 * j) + 1) <- 0;
          slots.(cells + j) <- a
        done;
        B.entered ctx;
        let callee = { slots; ctx; ret = 0 } in
        (try g.body callee with Returned -> ());
        if np > 0 then begin
          for j = 0 to np - 1 do
            free ctx slots.(cells + j) 0
          done;
          if lw.deallocs then
            B.dealloc ctx
              (List.mapi (fun j p -> (slots.(cells + j), 1, p)) g.ast.params)
        end;
        B.leave ctx g.ast;
        callee.ret

  and target lw sc line (l : lhs) : int * (frame -> int) =
    match l with
    | Lvar x -> (sym x, scalar_target (lookup lw sc x) x line)
    | Lidx (a, ie) ->
        (sym a, element (lookup lw sc a) a line (expr lw sc line ie))

  and stmt lw sc (s : stmt) : frame -> unit =
    let line = s.line in
    let ex = expr lw sc line in
    match s.node with
    | Decl (x, e) ->
        let c = ex e in
        let i = 2 * declare lw sc x and s = sym x in
        fun f ->
          let v = c f in
          let a = alloc f.ctx 0 in
          B.write f.ctx a s line v;
          f.slots.(i) <- a;
          f.slots.(i + 1) <- 0
    | Decl_arr (x, e) ->
        let c = ex e in
        let i = 2 * declare lw sc x in
        fun f ->
          let n = c f in
          if n < 0 then error "negative array size for %s (line %d)" x line;
          let len = max n 1 in
          f.slots.(i) <- alloc f.ctx len;
          f.slots.(i + 1) <- len
    | Assign (l, e) ->
        let c = ex e in
        let s, addr = target lw sc line l in
        fun f ->
          let v = c f in
          let a = addr f in
          B.write f.ctx a s line v
    | Atomic_assign (l, e) ->
        let c = ex e in
        let s, addr = target lw sc line l in
        fun f -> B.atomic f.ctx f c addr s line
    | If (e, tb, eb) ->
        let c = cond lw sc line e in
        let t = block lw sc tb in
        let e = block lw sc eb in
        fun f -> if c f then t f else e f
    | While (e, body) ->
        let c = cond lw sc line e in
        let b = block lw sc body in
        fun f ->
          let ctx = f.ctx in
          let lp = B.loop_enter ctx line in
          let n = ref 0 in
          (try
             (* the check admitting iteration n belongs to iteration n, so
                a value it reads from iteration n-1 is loop-carried *)
             B.loop_head ctx lp 0;
             while c f do
               B.loop_body ctx lp !n;
               incr n;
               b f;
               B.loop_head ctx lp !n
             done
           with Break_exc -> ());
          B.loop_exit ctx lp !n
    | For { index; lo; hi; step; body } ->
        let clo = ex lo in
        let k = new_slot lw in
        let isc = { (scope (Some sc)) with names = [ (index, k) ] } in
        let chi = expr lw isc line hi and cstep = expr lw isc line step in
        let b = block lw isc body in
        sc.all <- isc.all @ sc.all;
        let i = 2 * k and s = sym index in
        fun f ->
          let ctx = f.ctx in
          let lp = B.loop_enter ctx line in
          let v = clo f in
          let a = alloc ctx 0 in
          B.write ctx a s line v;
          f.slots.(i) <- a;
          f.slots.(i + 1) <- 0;
          let n = ref 0 in
          (try
             (* bound check and increment admit the next iteration and
                belong to it *)
             B.loop_head ctx lp 0;
             while
               let h = chi f in
               B.read ctx a s line < h
             do
               B.loop_body ctx lp !n;
               incr n;
               b f;
               B.loop_head ctx lp !n;
               let d = cstep f in
               let x = B.read ctx a s line in
               B.write ctx a s line (x + d);
               B.loop_head ctx lp !n
             done
           with Break_exc -> ());
          f.slots.(i) <- -1;
          free ctx a 0;
          if lw.deallocs then B.dealloc ctx [ (a, 1, index) ];
          B.loop_exit ctx lp !n
    | Call_stmt (name, args) ->
        let c = call lw sc line name args in
        fun f -> ignore (c f)
    | Return e ->
        let c = match e with Some e -> ex e | None -> fun _ -> 0 in
        fun f ->
          f.ret <- c f;
          raise_notrace Returned
    | Break -> fun _ -> raise_notrace Break_exc
    | Lock m ->
        lw.locks <- m :: lw.locks;
        fun f -> B.lock f.ctx m
    | Unlock m ->
        lw.locks <- m :: lw.locks;
        fun f -> B.unlock f.ctx m
    | Barrier m -> fun f -> B.barrier f.ctx m
    | Free x ->
        let v = lookup lw sc x in
        fun f ->
          let a = address f v x in
          let len = length f v x in
          free f.ctx a len;
          (match v with
          | Slot (k, _) when f.slots.(2 * k) >= 0 -> f.slots.(2 * k) <- -1
          | _ -> ());
          if lw.deallocs then B.dealloc f.ctx [ (a, max len 1, x) ]
    | Par blocks ->
        (* each arm is a thread with its own copy of the frame as of the
           fork; a [Return] ends just that thread *)
        let arms = List.map (block lw sc) blocks in
        let sync = syncs lw.prog blocks in
        fun f ->
          B.par f.ctx sync
            (List.map
               (fun arm ->
                 let slots = Array.copy f.slots in
                 fun ctx -> try arm { slots; ctx; ret = 0 } with Returned -> ())
               arms)

  (* Every statement runs from here, after its [B.stmt] hook. *)
  and seq = function
    | [] -> fun _ -> ()
    | [ s ] ->
        fun f ->
          B.stmt f.ctx;
          s f
    | s :: rest ->
        let r = seq rest in
        fun f ->
          B.stmt f.ctx;
          s f;
          r f

  and lower lw sc stmts =
    seq (List.rev (List.fold_left (fun acc s -> stmt lw sc s :: acc) [] stmts))

  (* A nested block. Leaving it frees the slots still bound among its own
     and its nested blocks' — those a [Break] left bound included — in
     reverse declaration order, like popping a stack frame; the dealloc
     event lists them in declaration order. Slots are numbered in
     declaration order. *)
  and block lw up stmts =
    let sc = scope (Some up) in
    let code = lower lw sc stmts in
    up.all <- sc.all @ up.all;
    match List.sort_uniq compare sc.all with
    | [] -> code
    | all ->
        let ks = Array.of_list (List.map fst all) in
        let names = Array.of_list (List.map snd all) in
        fun f ->
          code f;
          let s = f.slots and dead = ref [] in
          for j = Array.length ks - 1 downto 0 do
            let i = 2 * ks.(j) in
            let a = s.(i) in
            if a >= 0 then begin
              let len = s.(i + 1) in
              free f.ctx a len;
              s.(i) <- -1;
              if lw.deallocs then dead := (a, max len 1, names.(j)) :: !dead
            end
          done;
          match !dead with [] -> () | dead -> B.dealloc f.ctx dead

  (* Globals get their addresses first, in declaration order: lowering
     bakes them into the code. *)
  let prepare ?(deallocs = false) ctx (prog : program) =
    let globals = Hashtbl.create 16 in
    List.iter
      (function
        | Gscalar (x, v) ->
            let a = alloc ctx 0 in
            B.poke ctx a v;
            Hashtbl.replace globals x (a, 0)
        | Garray (x, size) ->
            let len = max size 1 in
            Hashtbl.replace globals x (alloc ctx len, len))
      prog.globals;
    let entry = find_func prog prog.entry in
    let lw =
      { prog; globals; funcs = Hashtbl.create 16; deallocs; locks = [];
        nslots = 0 }
    in
    (* the first function of a name is the one calls reach *)
    List.iter
      (fun g ->
        if not (Hashtbl.mem lw.funcs g.fname) then
          Hashtbl.add lw.funcs g.fname { ast = g; nslots = 0; body = (fun _ -> ()) })
      prog.funcs;
    Hashtbl.iter
      (fun _ fn ->
        lw.nslots <- 0;
        let psc = scope None in
        List.iter
          (fun p -> psc.names <- (p, new_slot lw) :: psc.names)
          (fn.ast.params @ fn.ast.arr_params);
        fn.body <- lower lw (scope (Some psc)) fn.ast.body;
        fn.nslots <- lw.nslots)
      lw.funcs;
    { lw; entry = Hashtbl.find lw.funcs entry.fname }

  let locks t = List.sort_uniq compare t.lw.locks

  let run_main t ctx =
    let f = { slots = Array.make (2 * t.entry.nslots) (-1); ctx; ret = 0 } in
    (try t.entry.body f with Returned -> ());
    f.ret

  let final_globals t ctx =
    List.map
      (fun g ->
        let x = match g with Gscalar (x, _) | Garray (x, _) -> x in
        match Hashtbl.find t.lw.globals x with
        | a, 0 -> (x, [| B.peek ctx a |])
        | b, len -> (x, Array.init len (fun i -> B.peek ctx (b + i))))
      t.lw.prog.globals
end
