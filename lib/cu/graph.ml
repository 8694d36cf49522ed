(* The CU graph (§3.4): vertices are CUs, edges are profiled data dependences
   mapped to the CUs containing their sink and source lines.

   Edge admission follows Table 3.1: between different CUs all three kinds
   are kept; within one CU only RAW self-edges are kept (they reveal the
   iterative read-compute-write-feedback pattern), WAR/WAW self-edges carry
   no information for parallelism discovery and are dropped. *)

module Dep = Profiler.Dep

type edge = {
  e_from : int;              (* the dependent CU (the dependence's sink) *)
  e_to : int;                (* the CU depended on (the source) *)
  e_type : Dep.dtype;
  e_var : string;            (* variable at the dependence's source *)
  e_carried : int option;    (* carrying loop header line, if loop-carried *)
  e_count : int;             (* merged occurrence count *)
  e_risk : float;            (* max false-positive risk of the merged deps *)
}

type t = {
  cus : Cu.t array;                       (* indexed by position *)
  index_of : (int, int) Hashtbl.t;        (* cu id -> position *)
  edges : edge list;
  succ : int list array;  (* dependence direction: from dependent to source *)
  pred : int list array;
}

let line_map (cus : Cu.t list) =
  let m = Hashtbl.create 64 in
  List.iter
    (fun (cu : Cu.t) ->
      Cu.SS.iter
        (fun lk ->
          (* Innermost CU wins if several cover a line; later entries come
             from deeper regions in construction order, so keep the last. *)
          Hashtbl.replace m (int_of_string lk) cu.Cu.id)
        cu.Cu.lines)
    cus;
  m

let build ~(cus : Cu.t list) ~(deps : Dep.Set_.t) : t =
  let arr = Array.of_list cus in
  let index_of = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i cu -> Hashtbl.replace index_of cu.Cu.id i) arr;
  let lines = line_map cus in
  let tbl : (int * int * Dep.dtype * string * int option, int * float) Hashtbl.t =
    Hashtbl.create 64
  in
  Dep.Set_.iter
    (fun d count ->
      match d.Dep.dtype with
      | Dep.Init -> ()
      | _ -> (
          match
            ( Hashtbl.find_opt lines d.Dep.sink_line,
              Hashtbl.find_opt lines d.Dep.src_line )
          with
          | Some c_sink, Some c_src ->
              let same = c_sink = c_src in
              let keep =
                match d.Dep.dtype with
                | Dep.Raw -> true
                | Dep.War | Dep.Waw -> not same
                | Dep.Init -> false
              in
              if keep then begin
                let key = (c_sink, c_src, d.Dep.dtype, d.Dep.var, d.Dep.carrier) in
                let prev_n, prev_r =
                  try Hashtbl.find tbl key with Not_found -> (0, 0.0)
                in
                (* An edge merging several records is as suspect as its most
                   collision-prone witness. *)
                Hashtbl.replace tbl key
                  (prev_n + count, Float.max prev_r (Dep.Set_.risk_of deps d))
              end
          | _ -> ()))
    deps;
  let edges =
    Hashtbl.fold
      (fun (f, t_, ty, var, ca) (n, risk) acc ->
        { e_from = f; e_to = t_; e_type = ty; e_var = var; e_carried = ca;
          e_count = n; e_risk = risk }
        :: acc)
      tbl []
  in
  (* Dataflow through callees is profiled on the callee's source lines and
     cannot be attributed to the calling CUs by line; the CUs' interprocedural
     read/write sets can. Add a static RAW edge whenever a later CU of the
     same region reads a variable an earlier one wrote. *)
  let edges =
    let by_region = Hashtbl.create 8 in
    List.iter
      (fun (cu : Cu.t) ->
        let prev = try Hashtbl.find by_region cu.Cu.region with Not_found -> [] in
        Hashtbl.replace by_region cu.Cu.region (cu :: prev))
      cus;
    Hashtbl.fold
      (fun _ group acc ->
        let ordered =
          List.sort (fun (a : Cu.t) b -> compare a.Cu.first_line b.Cu.first_line)
            group
        in
        let rec pairs acc = function
          | [] -> acc
          | (a : Cu.t) :: rest ->
              let acc =
                List.fold_left
                  (fun acc (b : Cu.t) ->
                    match
                      Cu.SS.choose_opt (Cu.SS.inter a.Cu.write_set b.Cu.read_set)
                    with
                    | Some var ->
                        { e_from = b.Cu.id; e_to = a.Cu.id; e_type = Dep.Raw;
                          e_var = var; e_carried = None; e_count = 0;
                          e_risk = 0.0 }
                        :: acc
                    | None -> acc)
                  acc rest
              in
              pairs acc rest
        in
        pairs acc ordered)
      by_region edges
  in
  let n = Array.length arr in
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun e ->
      match (Hashtbl.find_opt index_of e.e_from, Hashtbl.find_opt index_of e.e_to) with
      | Some i, Some j when i <> j ->
          succ.(i) <- j :: succ.(i);
          pred.(j) <- i :: pred.(j)
      | _ -> ())
    edges;
  Array.iteri (fun i l -> succ.(i) <- List.sort_uniq compare l) succ;
  Array.iteri (fun i l -> pred.(i) <- List.sort_uniq compare l) pred;
  { cus = arr; index_of; edges; succ; pred }

let size g = Array.length g.cus
let cu g i = g.cus.(i)

(* RAW edges only, by graph position — the "true dependences that cannot be
   broken" view used for task discovery. *)
let raw_succ g =
  let n = size g in
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      if e.e_type = Dep.Raw then
        match (Hashtbl.find_opt g.index_of e.e_from, Hashtbl.find_opt g.index_of e.e_to) with
        | Some i, Some j when i <> j -> adj.(i) <- j :: adj.(i)
        | _ -> ())
    g.edges;
  Array.map (List.sort_uniq compare) adj

(* Self RAW edges: the CU feeds itself across executions (Fig 3.4). *)
let self_raw g =
  List.filter_map
    (fun e ->
      if e.e_type = Dep.Raw && e.e_from = e.e_to then
        Hashtbl.find_opt g.index_of e.e_from
      else None)
    g.edges
  |> List.sort_uniq compare

(* [risk_threshold]: edges whose false-positive risk reaches it render dashed
   (with the risk in the label), so a signature-shadow run's suspect edges
   are visually separable from trustworthy ones. Risk is 0 everywhere under
   exact shadows, reproducing the old output byte for byte. *)
let to_dot ?(risk_threshold = 0.5) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph cu_graph {\n";
  Array.iteri
    (fun i (cu : Cu.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"CU%d %d-%d\\nr:%s w:%s\"];\n" i
           cu.Cu.id cu.Cu.first_line cu.Cu.last_line
           (String.concat "," (Cu.SS.elements cu.Cu.read_set))
           (String.concat "," (Cu.SS.elements cu.Cu.write_set))))
    g.cus;
  List.iter
    (fun e ->
      match (Hashtbl.find_opt g.index_of e.e_from, Hashtbl.find_opt g.index_of e.e_to) with
      | Some i, Some j ->
          let risky = e.e_risk > 0.0 && e.e_risk >= risk_threshold in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"%s%s%s\"%s];\n" i j
               (Dep.dtype_to_string e.e_type)
               (match e.e_carried with Some _ -> "*" | None -> "")
               (if risky then Printf.sprintf " r=%.2f" e.e_risk else "")
               (if risky then ", style=dashed" else ""))
      | _ -> ())
    g.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
