(* Dynamic control-dependence analysis via re-convergence points (§3.2.2).

   When only a binary is available, DiscoPoP finds, for every branch, the
   point where the alternatives end and unconditional execution resumes, by
   looking ahead along every alternative until the paths meet. We reproduce
   the algorithm over a statement-level control-flow graph derived from MIL:
   nodes are statement lines plus a synthetic exit; a branch's re-convergence
   point is the first node reachable on *every* outgoing path. *)

open Mil

type t = {
  succ : (int, int list) Hashtbl.t;     (* CFG successor lines *)
  branches : (int, int list) Hashtbl.t; (* branch line -> alternative heads *)
  reconv : (int, int) Hashtbl.t;        (* branch line -> re-convergence line *)
  exit_line : int;
}

let first_line (block : Ast.block) (fallthrough : int) =
  match block with [] -> fallthrough | s :: _ -> s.Ast.line

(* Build the CFG of one function. [next] is the line control reaches after the
   current block. *)
let build_function (f : Ast.func) ~(exit_line : int) : t =
  let succ = Hashtbl.create 64 in
  let branches = Hashtbl.create 16 in
  let add_succ l s =
    let prev = try Hashtbl.find succ l with Not_found -> [] in
    if not (List.mem s prev) then Hashtbl.replace succ l (s :: prev)
  in
  let rec block stmts next =
    match stmts with
    | [] -> ()
    | s :: rest ->
        let next_of_s = first_line rest next in
        stmt s next_of_s;
        block rest next
  and stmt (s : Ast.stmt) next =
    match s.Ast.node with
    | Ast.If (_, t, e) ->
        let t_head = first_line t next in
        let e_head = first_line e next in
        add_succ s.Ast.line t_head;
        add_succ s.Ast.line e_head;
        Hashtbl.replace branches s.Ast.line [ t_head; e_head ];
        block t next;
        block e next
    | Ast.While (_, body) | Ast.For { body; _ } ->
        let b_head = first_line body s.Ast.line in
        add_succ s.Ast.line b_head;
        add_succ s.Ast.line next;
        Hashtbl.replace branches s.Ast.line [ b_head; next ];
        (* back edge: last statement of the body returns to the header *)
        block body s.Ast.line
    | Ast.Par blocks ->
        List.iter
          (fun b ->
            add_succ s.Ast.line (first_line b next);
            block b next)
          blocks;
        if blocks = [] then add_succ s.Ast.line next
    | Ast.Return _ -> add_succ s.Ast.line exit_line
    | Ast.Break ->
        (* Conservative: treat as fallthrough; MIL workloads use break only
           as the last statement of a branch arm. *)
        add_succ s.Ast.line next
    | Ast.Decl _ | Ast.Decl_arr _ | Ast.Assign _ | Ast.Atomic_assign _
    | Ast.Call_stmt _ | Ast.Lock _ | Ast.Unlock _ | Ast.Barrier _ | Ast.Free _ ->
        add_succ s.Ast.line next
  in
  add_succ f.Ast.fline (first_line f.Ast.body exit_line);
  block f.Ast.body exit_line;
  let t = { succ; branches; reconv = Hashtbl.create 16; exit_line } in
  (* Look-ahead: walk every alternative, collecting reachable-node sets in BFS
     order; the re-convergence point is the first node (in the first
     alternative's BFS order) reachable from all alternatives. *)
  Hashtbl.iter
    (fun br alts ->
      let reach_from head =
        let seen = Hashtbl.create 32 in
        let order = ref [] in
        let q = Queue.create () in
        Queue.push head q;
        while not (Queue.is_empty q) do
          let l = Queue.pop q in
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.replace seen l ();
            order := l :: !order;
            List.iter (fun s -> Queue.push s q)
              (try Hashtbl.find succ l with Not_found -> [])
          end
        done;
        (seen, List.rev !order)
      in
      match alts with
      | [] -> ()
      | head :: others ->
          let _, order0 = reach_from head in
          let other_sets = List.map (fun h -> fst (reach_from h)) others in
          let rec first_common = function
            | [] -> exit_line
            | l :: rest ->
                if List.for_all (fun set -> Hashtbl.mem set l) other_sets then l
                else first_common rest
          in
          Hashtbl.replace t.reconv br (first_common order0))
    branches;
  t

let reconvergence_point t line = Hashtbl.find_opt t.reconv line

(* Lines control-dependent on branch [br]: reachable from an alternative head
   before hitting the re-convergence point. *)
let control_dependent_lines t br =
  match (Hashtbl.find_opt t.branches br, Hashtbl.find_opt t.reconv br) with
  | Some alts, Some rc ->
      let seen = Hashtbl.create 32 in
      let rec walk l =
        if l <> rc && (not (Hashtbl.mem seen l)) && l <> t.exit_line then begin
          Hashtbl.replace seen l ();
          List.iter walk (try Hashtbl.find t.succ l with Not_found -> [])
        end
      in
      List.iter walk alts;
      Hashtbl.fold (fun l () acc -> l :: acc) seen [] |> List.sort compare
  | _ -> []

let analyze (p : Ast.program) : (string, t) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let max_line =
    List.fold_left
      (fun acc (f : Ast.func) ->
        Ast.fold_block
          (fun acc (s : Ast.stmt) -> max acc s.Ast.line)
          (max acc f.Ast.fline) f.Ast.body)
      0 p.Ast.funcs
  in
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.replace tbl f.Ast.fname (build_function f ~exit_line:(max_line + 1)))
    p.Ast.funcs;
  tbl
