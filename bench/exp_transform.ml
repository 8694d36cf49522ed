(* Table 4.2, applied: where Exp_speedup models the speedup a suggestion
   *should* give, this experiment actually rewrites each program with
   lib/transform, differentially validates the result, and measures the
   work distribution of the transformed program under the cooperative
   scheduler.

   Columns: the transform kind chosen by apply_first, the modeled speedup of
   that suggestion (Amdahl x imbalance, from the ranking), Validate's
   critical-path proxy (serial accesses over main-thread work plus the
   heaviest spawned thread of the transformed run; counted, not timed),
   the interpreter runs the differential validation made
   ([transform.validate.runs], race runs included), how many of them were
   race runs without preemption ([transform.validate.cooperative]: 1 for a
   schedule-determinate transform, kept or discarded), and its verdict.

   The proxy trails the model for DOACROSS rows by construction:
   the transform serializes the carried suffix through lock hand-offs chunk
   to chunk, while the model assumes perfectly overlapped stages. *)

module P = Transform.Parallelize
module V = Transform.Validate
module R = Workloads.Registry
module S = Discovery.Suggestion

let threads = 4

let workloads =
  [ "histogram"; "mandelbrot"; "matmul"; "dotprod"; "jacobi"; "match_count";
    "prefix_sum"; "fib"; "uts"; "floorplan" ]

let find name = Option.get (Workloads.Catalog.find name)

(* No registry workload has a transformable DOACROSS (their carried chains
   run through arrays, which the rewriter refuses to hand off); this
   synthetic recurrence exercises the pipelined path: a dependence-free
   prefix feeding a scalar chain, fissioned and serialized through locks. *)
let pipeline_prog =
  let open Mil.Builder in
  number
    (program
       ~globals:[ garray "a" 4096; garray "b" 4096; gscalar "s" 1 ]
       ~entry:"main" "pipeline"
       [ func "main"
           [ for_ "i" (i 0) (i 4096) [ seti "a" (v "i") (v "i" + i 3) ];
             for_ "i" (i 0) (i 4096)
               [ decl "t" (("a".%[v "i"] * i 5) % i 97);
                 set "s" ((v "s" * i 3 + v "t") % i 1009);
                 seti "b" (v "i") (v "s") ];
             return (v "s" + "b".%[i 4000]) ] ])

let transform_row name applied =
  match applied with
  | Error _ -> [ name; "-"; "-"; "-"; "-"; "-"; "not transformable" ]
  | Ok (t : P.t) ->
      let s = t.plan.P.p_suggestion in
      let d = V.measure ~original:t.original t.transformed in
      let count () =
        ( Obs.counter_value "transform.validate.runs",
          Obs.counter_value "transform.validate.cooperative" )
      in
      let runs0, coop0 = count () in
      let v = V.differential ~original:t.original ~transformed:t.transformed () in
      let runs1, coop1 = count () in
      [ name;
        (match s.kind with
        | S.Sdoall _ -> "DOALL"
        | Sdoacross _ -> "DOACROSS"
        | Sspmd _ -> "SPMD"
        | Smpmd _ -> "MPMD");
        Printf.sprintf "%.2fx" s.score.Discovery.Ranking.combined;
        Printf.sprintf "%.2fx" d.V.d_measured_speedup;
        string_of_int (runs1 - runs0);
        string_of_int (coop1 - coop0);
        (if v.V.v_ok then "PASS"
         else
           Printf.sprintf "FAIL (%d issues)"
             (List.length v.V.v_mismatches + List.length v.V.v_new_racy)) ]

let run () =
  Util.header "Table 4.2 (applied): transform, validate, measure";
  let rows =
    List.map
      (fun name ->
        let w = find name in
        let report = S.analyze ~threads (R.program w) in
        transform_row name
          (Result.map fst (P.apply_first ~chunks:threads report)))
      workloads
  in
  let doacross_row =
    let report = S.analyze ~threads pipeline_prog in
    let applied =
      match
        List.find_opt
          (fun (s : S.t) ->
            match s.kind with S.Sdoacross _ -> true | _ -> false)
          report.S.suggestions
      with
      | Some s -> P.apply ~chunks:threads report s
      | None -> Error "no DOACROSS suggestion"
    in
    transform_row "pipeline*" applied
  in
  Util.table
    ~columns:
      [ "program"; "transform"; "modeled"; "proxy"; "runs"; "coop";
        "validation" ]
    (rows @ [ doacross_row ]);
  print_newline ();
  print_endline
    "* synthetic scalar recurrence; registry DOACROSS candidates carry their\n\
    \  chains through arrays, which the rewriter conservatively refuses.";
  print_endline
    "proxy < modeled on the DOACROSS row: the lock hand-off serializes the\n\
     carried suffix chunk-to-chunk, where the model assumes overlapped stages.";
  print_endline
    "proxy >> modeled on fork-join rows: the critical-path proxy\n\
     (main-thread work + heaviest single task) understates the spawn-chain\n\
     depth of recursive decompositions."
