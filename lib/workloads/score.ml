(* Scoring of discovery results against workload ground truth — the machinery
   behind Table 4.1 (DOALL detection) and Table 4.4 (DOACROSS detection). *)

module L = Discovery.Loops

type loop_result = {
  workload : string;
  loop_line : int;
  expected : Registry.expectation;
  got : L.loop_class;
  exact : bool;        (* class matches exactly *)
  binary : bool;       (* parallelisable-vs-not matches (Table 4.1 scoring) *)
}

let parallelisable_expected = function
  | Registry.Edoall | Registry.Edoall_reduction -> true
  | Registry.Edoacross | Registry.Eseq | Registry.Eany -> false

let parallelisable_got = function
  | L.Doall | L.Doall_reduction -> true
  | L.Doacross | L.Sequential -> false

let exact_match e g =
  match (e, g) with
  | Registry.Edoall, L.Doall -> true
  | Registry.Edoall_reduction, L.Doall_reduction -> true
  | Registry.Edoacross, L.Doacross -> true
  | Registry.Eseq, (L.Sequential | L.Doacross) ->
      (* Sequential-vs-DOACROSS is a feasibility judgement, not correctness:
         either way the loop is correctly withheld from DOALL. *)
      true
  | _ -> false

let score_workload (w : Registry.t) : loop_result list =
  let prog = Registry.program w in
  let report = Discovery.Suggestion.analyze prog in
  let loops =
    List.sort
      (fun (a : L.analysis) b -> compare a.L.loop_line b.L.loop_line)
      report.Discovery.Suggestion.loops
  in
  List.filteri (fun k _ -> k < List.length w.Registry.expected_loops) loops
  |> List.mapi (fun k (a : L.analysis) ->
         let expected = List.nth w.Registry.expected_loops k in
         { workload = w.Registry.name;
           loop_line = a.L.loop_line;
           expected;
           got = a.L.cls;
           exact = exact_match expected a.L.cls;
           binary = parallelisable_expected expected = parallelisable_got a.L.cls })

type summary = {
  total_scored : int;
  exact_correct : int;
  binary_correct : int;
  parallel_truth : int;      (* ground-truth parallelisable loops *)
  parallel_found : int;      (* of those, correctly identified (recall) *)
  false_parallel : int;      (* non-parallelisable loops claimed parallel *)
}

let summarise (results : loop_result list) : summary =
  let scored = List.filter (fun r -> r.expected <> Registry.Eany) results in
  let parallel_truth = List.filter (fun r -> parallelisable_expected r.expected) scored in
  { total_scored = List.length scored;
    exact_correct = List.length (List.filter (fun r -> r.exact) scored);
    binary_correct = List.length (List.filter (fun r -> r.binary) scored);
    parallel_truth = List.length parallel_truth;
    parallel_found =
      List.length (List.filter (fun r -> parallelisable_got r.got) parallel_truth);
    false_parallel =
      List.length
        (List.filter
           (fun r ->
             (not (parallelisable_expected r.expected)) && parallelisable_got r.got)
           scored) }

let detection_rate s =
  if s.parallel_truth = 0 then 1.0
  else float_of_int s.parallel_found /. float_of_int s.parallel_truth
