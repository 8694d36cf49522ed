(* Bottom-up CU construction (§3.2.3), the dynamic alternative to
   Algorithm 3 built on the fly over the instruction stream, each event
   consumed as the interpreter emits it: every static memory operation
   starts as its own CU; a write merges with the operations it anti-depends
   on (WAR: the last readers of the address), and true dependences (RAW)
   become edges. This is the construction whose output is
   "too fine to discover coarse-grained parallel tasks" (Fig 3.7) — the
   reason the framework adopted the top-down algorithm. *)

type dynamic = {
  group_of_op : (int, int) Hashtbl.t;      (* op id -> group representative *)
  op_lines : (int, int) Hashtbl.t;         (* op id -> source line *)
  d_raw_edges : (int * int) list;          (* group -> group true deps *)
  n_ops : int;
}

let build_dynamic (prog : Mil.Ast.program) : dynamic =
  Obs.Span.with_ ~phase:"cu.bottom_up" @@ fun () ->
  let parent : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec find o =
    match Hashtbl.find_opt parent o with
    | Some p when p <> o ->
        let r = find p in
        Hashtbl.replace parent o r;
        r
    | Some _ -> o
    | None ->
        Hashtbl.replace parent o o;
        o
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent rb ra
  in
  let op_lines = Hashtbl.create 256 in
  (* last reader ops and last writer op per address *)
  let readers : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let writer : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let raw = ref [] in
  let on_access ~kind ~addr ~var:_ ~line ~thread:_ ~time:_ ~op ~lstack:_
      ~locked:_ =
    Hashtbl.replace op_lines op line;
    ignore (find op);
    match kind with
    | Trace.Event.Read ->
        (match Hashtbl.find_opt writer addr with
        | Some w -> raw := (op, w) :: !raw
        | None -> ());
        let prev = try Hashtbl.find readers addr with Not_found -> [] in
        Hashtbl.replace readers addr (op :: List.filteri (fun i _ -> i < 7) prev)
    | Trace.Event.Write ->
        (* merge with the operations this write anti-depends on *)
        (match Hashtbl.find_opt readers addr with
        | Some rs -> List.iter (fun r -> union r op) rs
        | None -> ());
        Hashtbl.replace writer addr op;
        Hashtbl.replace readers addr []
  in
  let emit = function
    | Trace.Event.Dealloc { addrs } ->
        List.iter
          (fun (base, len, _) ->
            for addr = base to base + len - 1 do
              Hashtbl.remove readers addr;
              Hashtbl.remove writer addr
            done)
          addrs
    | _ -> ()
  in
  ignore (Mil.Interp.run ~on_access ~emit prog);
  let group_of_op = Hashtbl.create 256 in
  Hashtbl.iter (fun o _ -> Hashtbl.replace group_of_op o (find o)) parent;
  let d_raw_edges =
    List.rev_map (fun (snk, src) -> (find snk, find src)) !raw
    |> List.filter (fun (a, b) -> a <> b)
    |> List.sort_uniq compare
  in
  { group_of_op; op_lines; d_raw_edges; n_ops = Hashtbl.length parent }

let dynamic_group_count d =
  Hashtbl.fold (fun _ g acc -> g :: acc) d.group_of_op []
  |> List.sort_uniq compare |> List.length
