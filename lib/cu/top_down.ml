(* Top-down CU construction (Algorithm 3, §3.2.3).

   Starting from functions — the largest constructs that naturally resemble
   the read-compute-write pattern — the algorithm checks whether a whole
   control region is one CU: every variable global to the region must have
   all its reads happen before its writes. Reads that violate the pattern
   split the region into multiple CUs at the violating statements. Nested
   regions are treated as single items at their parent's level (a CU never
   crosses a control-region boundary) and are decomposed recursively.

   Special rules (§3.2.5): scalar function parameters belong to the read set
   only; the return value is the virtual variable [ret] in the write set;
   loop iteration variables are local to their loop unless the body writes
   them. *)

open Mil
module SS = Static.SS

(* One item of a region's statement sequence: either a plain statement or a
   nested control region collapsed to its aggregated access sets. *)
type item = {
  it_line : int;
  it_reads : SS.t;         (* region-global variables read by the item *)
  it_writes : SS.t;
  it_lines : int list;     (* all lines covered (subtree for regions) *)
  it_weight : int;
  it_call : bool;
  it_region : int option;  (* nested region id, if the item is a region *)
}

type result = {
  cus : Cu.t list;                  (* every CU, all regions *)
  by_region : (int, Cu.t list) Hashtbl.t;  (* region id -> its CU partition *)
  static : Static.t;
}

(* Every line of the statement's subtree, in pre-order. *)
let stmt_lines (s : Ast.stmt) =
  List.rev (Ast.fold_block (fun acc (t : Ast.stmt) -> t.line :: acc) [] [ s ])

(* A call anywhere in the statement's subtree: a call statement, or a call
   in any expression a statement evaluates (an assignment target's index
   included). *)
let stmt_has_call (s : Ast.stmt) =
  Ast.exists_block (fun t -> Rewrite.stmt_calls t [] <> []) [ s ]

(* Reads and writes of the directly-evaluated expressions of a statement,
   including interprocedural call effects, with a declaration's binder as a
   write and the virtual [ret] written by a return. Nested blocks are NOT
   included — they become their own items. *)
let shallow_rw (st : Static.t) (s : Ast.stmt) : SS.t * SS.t =
  let fx = Static.effects st s in
  let writes = SS.union fx.fx_writes (SS.of_list (Option.to_list fx.fx_binds)) in
  match s.node with
  | Ast.Return _ -> (fx.fx_reads, SS.add "ret" writes)
  | _ -> (fx.fx_reads, writes)

(* The variable set used for CU construction in region [rid]: variables global
   to the region, with the §3.2.5 special rules applied — function parameters
   and the virtual [ret] are global to a function body; a loop index is local
   to its loop unless the body writes it. *)
let construction_globals (st : Static.t) rid =
  let r = st.regions.(rid) in
  let gv = SS.union r.globals_read r.globals_written in
  match r.kind with
  | Static.Rloop { index = Some ix; _ } ->
      if r.index_written_in_body then SS.add ix gv else SS.remove ix gv
  | Static.Rfunc fname ->
      let f = Hashtbl.find st.funcs fname in
      SS.add "ret" (SS.union gv (SS.of_list f.Ast.params))
  | Static.Rloop { index = None; _ } | Static.Rbranch _ -> gv

(* Items of region [rid]: its direct statements, with nested-region statements
   collapsed. The per-item sets are restricted to [gv]. *)
let items_of_region (st : Static.t) rid gv : item list =
  let r = st.regions.(rid) in
  (* Children regions in source order, to match statements that own them. *)
  let child_of_line = Hashtbl.create 8 in
  List.iter
    (fun cid ->
      let c = st.regions.(cid) in
      let prev = try Hashtbl.find child_of_line c.first_line with Not_found -> [] in
      Hashtbl.replace child_of_line c.first_line (prev @ [ cid ]))
    r.children;
  List.map
    (fun (s : Ast.stmt) ->
      let subregions =
        if Ast.stmt_blocks s = [] then []
        else try Hashtbl.find child_of_line s.line with Not_found -> []
      in
      let reads, writes =
        List.fold_left
          (fun (r_acc, w_acc) cid ->
            let c = st.regions.(cid) in
            (SS.union r_acc c.globals_read, SS.union w_acc c.globals_written))
          (shallow_rw st s) subregions
      in
      { it_line = s.line;
        it_reads = SS.inter reads gv;
        it_writes = SS.inter writes gv;
        it_lines = stmt_lines s;
        it_weight = Rewrite.count_stmts [ s ];
        it_call = stmt_has_call s;
        it_region = (match subregions with [ c ] -> Some c | _ -> None) })
    r.stmts

(* Partition the item sequence of one region into CUs: cut before every item
   containing a violating read — a read of a global already written by an
   earlier item of the region (the read-compute-write pattern is broken). *)
let partition_items items : item list list =
  let written = ref SS.empty in
  let segments = ref [] in
  let current = ref [] in
  List.iter
    (fun it ->
      let violating = not (SS.is_empty (SS.inter it.it_reads !written)) in
      if violating && !current <> [] then begin
        segments := List.rev !current :: !segments;
        current := [];
        written := SS.empty
      end;
      current := it :: !current;
      written := SS.union !written it.it_writes)
    items;
  if !current <> [] then segments := List.rev !current :: !segments;
  List.rev !segments

let c_cus = Obs.counter "cu.top_down.cus"

let build (st : Static.t) : result =
  Obs.Span.with_ ~phase:"cu.top_down" @@ fun () ->
  let by_region = Hashtbl.create 16 in
  let all = ref [] in
  let next_id = ref 0 in
  let rec build_region rid =
    let gv = construction_globals st rid in
    let items = items_of_region st rid gv in
    let segments = partition_items items in
    let func = Static.func_of_region st rid in
    (* by-value parameters never enter a write set (§3.2.5) *)
    let param_filter =
      match st.regions.(rid).kind with
      | Static.Rfunc fname ->
          let f = Hashtbl.find st.funcs fname in
          fun ws -> List.fold_left (fun acc p -> SS.remove p acc) ws f.Ast.params
      | Static.Rloop _ | Static.Rbranch _ -> Fun.id
    in
    let cus =
      List.map
        (fun seg ->
          let id = !next_id in
          incr next_id;
          let lines = List.concat_map (fun it -> it.it_lines) seg in
          let read_set =
            List.fold_left (fun acc it -> SS.union acc it.it_reads) SS.empty seg
          in
          let write_set =
            param_filter
              (List.fold_left (fun acc it -> SS.union acc it.it_writes) SS.empty seg)
          in
          let weight = List.fold_left (fun acc it -> acc + it.it_weight) 0 seg in
          Cu.make ~id ~region:rid ~func ~lines ~read_set ~write_set ~weight
            ~contains_call:(List.exists (fun it -> it.it_call) seg)
            ~contains_region:(List.exists (fun it -> it.it_region <> None) seg))
        segments
    in
    Hashtbl.replace by_region rid cus;
    all := cus @ !all;
    (* Recurse: nested regions get their own internal decomposition. *)
    List.iter build_region st.regions.(rid).children
  in
  Array.iter
    (fun (r : Static.region) -> if r.parent = -1 then build_region r.id)
    st.regions;
  Obs.Counter.add c_cus !next_id;
  { cus = List.rev !all; by_region; static = st }

let cus_of_region (res : result) rid =
  try Hashtbl.find res.by_region rid with Not_found -> []

(* True when the whole region satisfies the read-compute-write pattern. *)
let region_is_single_cu res rid =
  match cus_of_region res rid with [ _ ] | [] -> true | _ :: _ :: _ -> false
