(* Case study: parallelising a gzip-style block compressor (§4.4.2,
   Table 4.5) — the full DiscoPoP narrative on one program:

   1. profile the dependences,
   2. construct computational units,
   3. discover and rank the parallelism,
   4. model what the top suggestion buys (the pigz design).

   Run with:  dune exec examples/gzip_case_study.exe *)

module R = Workloads.Registry
module L = Discovery.Loops

let () =
  let w = List.find (fun (w : R.t) -> w.R.name = "gzip") Workloads.Apps.all in
  let prog = R.program w in

  print_endline "=== 1. the program ===";
  print_string (Mil.Pretty.render_program prog);

  print_endline "\n=== 2. profile ===";
  let report = Discovery.Suggestion.analyze prog in
  let profile = report.Discovery.Suggestion.profile in
  Printf.printf "%d dynamic memory instructions -> %d merged dependences\n"
    profile.accesses
    (Profiler.Dep.Set_.cardinal profile.deps);

  print_endline "\n=== 3. computational units of main ===";
  let main_region =
    Mil.Static.func_region report.Discovery.Suggestion.static "main"
  in
  List.iter
    (fun cu -> Printf.printf "  %s\n" (Cunit.Cu.to_string cu))
    (Cunit.Top_down.cus_of_region report.Discovery.Suggestion.cures main_region);

  print_endline "\n=== 4. ranked suggestions ===";
  print_string (Discovery.Suggestion.render report);

  print_endline "\n=== 5. what the top suggestion buys ===";
  (match report.Discovery.Suggestion.suggestions with
  | { Discovery.Suggestion.kind = Discovery.Suggestion.Sdoall a; _ } :: _ ->
      let total = Profiler.Pet.total_instructions profile.pet in
      List.iter
        (fun p ->
          let sp =
            Discovery.Schedule.doall_speedup ~processors:p
              ~iterations:a.L.iterations ~loop_instructions:a.L.instructions
              ~total_instructions:total
          in
          Printf.printf "  %2d threads -> modeled %.2fx\n" p sp)
        [ 2; 4; 8 ];
      Printf.printf
        "  compressing the %d blocks in parallel with a reduction over the\n\
        \  output cursor — the design pigz ships\n"
        a.L.iterations
  | _ -> print_endline "  (expected the block loop on top)")
