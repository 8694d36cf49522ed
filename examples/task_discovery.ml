(* Task discovery: find SPMD fork-join tasks in a recursive program and the
   MPMD task graph of a multi-stage application (Fig. 4.10), and render the
   CU graph the detection is based on.

   Run with:  dune exec examples/task_discovery.exe *)

let analyze_and_print name (w : Workloads.Registry.t) =
  Printf.printf "=== %s ===\n" name;
  let prog = Workloads.Registry.program w in
  let report = Discovery.Suggestion.analyze prog in
  print_string (Discovery.Suggestion.render report);
  print_newline ()

let () =
  let fib = List.find (fun (w : Workloads.Registry.t) -> w.name = "fib") Workloads.Bots.all in
  let sort = List.find (fun (w : Workloads.Registry.t) -> w.name = "sort") Workloads.Bots.all in
  let facedetect =
    List.find (fun (w : Workloads.Registry.t) -> w.name = "facedetect") Workloads.Apps.all
  in
  analyze_and_print "fib (recursive fork-join, Fig 4.3)" fib;
  analyze_and_print "merge sort (divide and conquer)" sort;
  analyze_and_print "face detection (MPMD task graph, Fig 4.10)" facedetect;

  (* Show the CU graph behind the facedetect MPMD finding. *)
  let prog = Workloads.Registry.program facedetect in
  let st = Mil.Static.analyze prog in
  let cures = Cunit.Top_down.build st in
  let profile = Profiler.Serial.profile prog in
  let main_region = Mil.Static.func_region st "main" in
  let cus = Cunit.Top_down.cus_of_region cures main_region in
  let g = Cunit.Graph.build ~cus ~deps:profile.Profiler.Serial.deps in
  print_endline "--- CU graph of facedetect main (graphviz) ---";
  print_string (Cunit.Graph.to_dot g)
