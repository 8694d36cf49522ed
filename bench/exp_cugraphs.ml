(* Figures 3.6 / 3.7 — CU-graph structure:
   - rot-cc's top-down CU graph shows the three-step barrier organisation
     (rotate -> colour-convert with intermediate buffers, Fig 3.6);
   - CG's bottom-up (instruction-level) graph is orders of magnitude finer
     than the top-down one — the reason the framework prefers top-down
     construction (Fig 3.7, §3.3). *)

let run () =
  Util.header "Fig 3.6: top-down CU graph of rot-cc's main";
  let rotcc =
    List.find (fun (w : Workloads.Registry.t) -> w.name = "rot-cc")
      Workloads.Starbench.all
  in
  let prog = Workloads.Registry.program ~size:16 rotcc in
  let st = Mil.Static.analyze prog in
  let cures = Cunit.Top_down.build st in
  let r = Profiler.Serial.profile prog in
  let main_region = Mil.Static.func_region st "main" in
  let cus = Cunit.Top_down.cus_of_region cures main_region in
  let g = Cunit.Graph.build ~cus ~deps:r.deps in
  List.iter (fun cu -> Printf.printf "  %s\n" (Cunit.Cu.to_string cu)) cus;
  Printf.printf "  edges: %d (RAW chain over the src -> mid -> yout buffers)\n"
    (List.length g.Cunit.Graph.edges);

  Util.header "Fig 3.7: top-down vs bottom-up granularity on CG";
  let cg =
    List.find (fun (w : Workloads.Registry.t) -> w.name = "CG") Workloads.Nas.all
  in
  let prog = Workloads.Registry.program ~size:24 cg in
  let st = Mil.Static.analyze prog in
  let cures = Cunit.Top_down.build st in
  let fine = Cunit.Bottom_up.build_dynamic prog in
  Printf.printf
    "  top-down: %d CUs across all regions\n\
    \  bottom-up: %d memory operations -> %d fine-grained CUs, %d RAW edges\n"
    (List.length cures.Cunit.Top_down.cus)
    fine.Cunit.Bottom_up.n_ops
    (Cunit.Bottom_up.dynamic_group_count fine)
    (List.length fine.Cunit.Bottom_up.d_raw_edges);
  print_endline
    "(paper: the bottom-up graph is \"much more complex, and it is almost\n\
    \ impossible for users to manually explore the parallelism it contains\")"
