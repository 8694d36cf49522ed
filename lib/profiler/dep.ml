(* Representation and runtime merging of data dependences (§2.3.1, §2.3.5).

   A dependence is the triple <sink, type, source> with attributes: variable
   name, thread ids (meaningful for multi-threaded targets), a loop-carried
   tag, and a race flag. Two dependences are identical iff every element of
   the triple and all attributes are identical; identical dependences are
   merged at runtime, which is what makes whole-program profiling feasible
   (the paper reports a 10^5x output reduction). *)

type dtype = Raw | War | Waw | Init

let dtype_to_string = function
  | Raw -> "RAW"
  | War -> "WAR"
  | Waw -> "WAW"
  | Init -> "INIT"

type t = {
  sink_line : int;
  sink_thread : int;
  dtype : dtype;
  src_line : int;      (* 0 for INIT *)
  src_thread : int;
  var : string;        (* variable at the source access; "*" for INIT *)
  carrier : int option; (* header line of the carrying loop, if loop-carried *)
  racy : bool;         (* timestamp reversal observed (potential data race) *)
}

let init_dep ~sink_line ~sink_thread =
  { sink_line; sink_thread; dtype = Init; src_line = 0; src_thread = -1;
    var = "*"; carrier = None; racy = false }

let compare = Stdlib.compare

let to_string ?(threads = false) d =
  match d.dtype with
  | Init -> "{INIT *}"
  | _ ->
      let loc =
        if threads then Printf.sprintf "1:%d|%d" d.src_line d.src_thread
        else Printf.sprintf "1:%d" d.src_line
      in
      Printf.sprintf "{%s %s|%s%s%s}" (dtype_to_string d.dtype) loc d.var
        (match d.carrier with Some l -> Printf.sprintf "|carried@%d" l | None -> "")
        (if d.racy then "|racy" else "")

(* Provenance of a merged dependence record: the first dynamic instance that
   witnessed it, and how collision-prone the shadow slot that produced it was
   at that moment. The source-line pair and variable live in the record
   itself (they are part of its identity); provenance adds the when/where/how
   that makes a reported dependence auditable. *)
type prov = {
  first_time : int;     (* interpreter timestamp of the witnessing sink access *)
  first_index : int;    (* engine-local dynamic access index of that witness *)
  witness_domain : int; (* profiler domain that built the record *)
  risk : float;         (* shadow false-positive risk at witness time; 0 = exact *)
}

(* A merged multiset of dependences: each distinct dependence is stored once
   in a cell holding its occurrence count and (when profiled with
   provenance) its first-witness record, so a new record costs one lookup
   and one insert. Counts are [int ref]s so the engine's per-op
   duplicate-suppression fast path can bump a record's count without
   re-hashing it ({!note} hands the count out; the engine bumps it and the
   occurrence counter in place). *)
module Set_ = struct
  type dep = t

  type cell = { n : int ref; mutable pv : prov option }

  type t = {
    tbl : (dep, cell) Hashtbl.t;
    raw_occurrences : int ref;  (* pre-merge instance count *)
  }

  let create () = { tbl = Hashtbl.create 256; raw_occurrences = ref 0 }

  (* [Hashtbl.add] of an absent key builds the buckets [Hashtbl.replace]
     would, so iteration order does not depend on which one inserted. *)
  let add t d =
    incr t.raw_occurrences;
    match Hashtbl.find_opt t.tbl d with
    | Some c -> incr c.n
    | None -> Hashtbl.add t.tbl d { n = ref 1; pv = None }

  (* Like [add], but record first-witness provenance when [d] is new, and
     return the count cell for the engine's dedup fast path. Within one
     engine, accesses arrive in increasing timestamp order, so the first
     instance is the earliest witness; [risk] is a thunk so backends only
     pay for it on new records. *)
  let note t d ~time ~index ~domain ~risk =
    incr t.raw_occurrences;
    match Hashtbl.find_opt t.tbl d with
    | Some c ->
        incr c.n;
        c.n
    | None ->
        let n = ref 1 in
        Hashtbl.add t.tbl d
          { n;
            pv =
              Some
                { first_time = time; first_index = index;
                  witness_domain = domain; risk = risk () } };
        n

  let add_witness t d ~time ~index ~domain ~risk =
    ignore (note t d ~time ~index ~domain ~risk)

  let occurrences_cell t = t.raw_occurrences

  let prov t d =
    match Hashtbl.find_opt t.tbl d with Some c -> c.pv | None -> None

  (* Risk of a record, defaulting to 0 when it was added without provenance
     (files read back from disk, hand-built sets in tests). *)
  let risk_of t d = match prov t d with Some p -> p.risk | None -> 0.0

  let mem t d = Hashtbl.mem t.tbl d
  let cardinal t = Hashtbl.length t.tbl
  let occurrences t = !(t.raw_occurrences)

  (* Merging factor: how many dependence instances each merged record stands
     for, on average (the paper's 10^5 output-size reduction). *)
  let merging_factor t =
    if Hashtbl.length t.tbl = 0 then 1.0
    else float_of_int !(t.raw_occurrences) /. float_of_int (Hashtbl.length t.tbl)

  let iter f t = Hashtbl.iter (fun d c -> f d !(c.n)) t.tbl

  let to_list t =
    Hashtbl.fold (fun d c acc -> (d, !(c.n)) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* Records ranked hottest-first (by merged occurrence count, ties broken by
     {!compare} for determinism), with provenance where available — the order
     `discopop explain` presents. *)
  let to_ranked t =
    Hashtbl.fold (fun d c acc -> (d, !(c.n), c.pv) :: acc) t.tbl []
    |> List.sort (fun (a, na, _) (b, nb, _) ->
           match Stdlib.compare nb na with 0 -> compare a b | c -> c)

  (* The earliest witness wins: one record's addresses (the elements of an
     array, say) can land on different workers, so two workers can witness
     the same record. *)
  let union into from =
    Hashtbl.iter
      (fun d c ->
        (* Copy the count, never alias [from]'s cell into [into]. *)
        match Hashtbl.find_opt into.tbl d with
        | Some m -> (
            m.n := !(m.n) + !(c.n);
            match (m.pv, c.pv) with
            | Some q, Some p when q.first_time <= p.first_time -> ()
            | _, Some p -> m.pv <- Some p
            | _, None -> ())
        | None -> Hashtbl.add into.tbl d { n = ref !(c.n); pv = c.pv })
      from.tbl;
    into.raw_occurrences := !(into.raw_occurrences) + !(from.raw_occurrences)

  (* Accuracy of an approximate dependence set [got] against the exact set
     [truth] (§2.5.1): FPR = |got \ truth| / |got|, FNR = |truth \ got| /
     |truth|. The race flag is not part of identity here. *)
  let strip d = { d with racy = false }

  let accuracy ~truth ~got =
    let truth_keys = Hashtbl.create (cardinal truth) in
    iter (fun d _ -> Hashtbl.replace truth_keys (strip d) ()) truth;
    let got_keys = Hashtbl.create (cardinal got) in
    iter (fun d _ -> Hashtbl.replace got_keys (strip d) ()) got;
    let fp = ref 0 and fn = ref 0 in
    Hashtbl.iter (fun d () -> if not (Hashtbl.mem truth_keys d) then incr fp) got_keys;
    Hashtbl.iter (fun d () -> if not (Hashtbl.mem got_keys d) then incr fn) truth_keys;
    let n_got = Hashtbl.length got_keys and n_truth = Hashtbl.length truth_keys in
    let fpr = if n_got = 0 then 0.0 else float_of_int !fp /. float_of_int n_got in
    let fnr = if n_truth = 0 then 0.0 else float_of_int !fn /. float_of_int n_truth in
    (fpr, fnr)

  (* Occurrence-weighted accuracy: each dependence record weighted by how
     many dynamic instances it stands for. A one-off hash collision then
     contributes one instance against the millions of instances of the hot
     true dependences — matching how sub-percent error rates arise in the
     paper's Table 2.6 despite non-zero collision counts. *)
  let accuracy_weighted ~truth ~got =
    let truth_keys = Hashtbl.create (cardinal truth) in
    iter (fun d n -> Hashtbl.replace truth_keys (strip d) n) truth;
    let got_keys = Hashtbl.create (cardinal got) in
    iter (fun d n -> Hashtbl.replace got_keys (strip d) n) got;
    let fp = ref 0 and fn = ref 0 and got_total = ref 0 and truth_total = ref 0 in
    Hashtbl.iter
      (fun d n ->
        got_total := !got_total + n;
        if not (Hashtbl.mem truth_keys d) then fp := !fp + n)
      got_keys;
    Hashtbl.iter
      (fun d n ->
        truth_total := !truth_total + n;
        if not (Hashtbl.mem got_keys d) then fn := !fn + n)
      truth_keys;
    let fpr =
      if !got_total = 0 then 0.0 else float_of_int !fp /. float_of_int !got_total
    in
    let fnr =
      if !truth_total = 0 then 0.0
      else float_of_int !fn /. float_of_int !truth_total
    in
    (fpr, fnr)

  (* Dependences whose sink is at [line]. *)
  let at_sink t line =
    Hashtbl.fold
      (fun d _ acc -> if d.sink_line = line then d :: acc else acc)
      t.tbl []
    |> List.sort compare

  (* All dependences whose sink lies within [lo, hi]. *)
  let in_range t ~lo ~hi =
    Hashtbl.fold
      (fun d _ acc -> if d.sink_line >= lo && d.sink_line <= hi then d :: acc else acc)
      t.tbl []
    |> List.sort compare
end
