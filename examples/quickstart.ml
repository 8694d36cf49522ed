(* Quickstart: profile a small program and read the dependence report.

   Run with:  dune exec examples/quickstart.exe

   The program is the paper's Figure 2.7 loop. The profiler output below uses
   the paper's text format (Fig. 2.1): BGN/END control records and NOM lines
   that aggregate the dependences whose sink is that source line. *)

let () =
  let program =
    let open Mil.Builder in
    number
      (program ~entry:"main" "quickstart"
         [ func "main"
             [ decl "k" (i 100);
               decl "sum" (i 0);
               while_ (v "k" > i 0)
                 [ set "sum" (v "sum" + v "k" * i 2);
                   set "k" (v "k" - i 1) ] ] ])
  in
  print_endline "--- source ---";
  print_string (Mil.Pretty.render_program program);

  (* Phase 1: instrument and execute, collecting data dependences. *)
  let result = Profiler.Serial.profile program in
  let with_skip = Profiler.Serial.profile ~skip:true program in
  Printf.printf "\n--- profile ---\n";
  Printf.printf "dynamic memory instructions : %d\n" result.accesses;
  Printf.printf "distinct dependences        : %d (merging factor %.1fx)\n"
    (Profiler.Dep.Set_.cardinal result.deps)
    result.merging_factor;
  Printf.printf "instructions skipped (§2.4) : %d reads, %d writes\n"
    with_skip.skip_stats.Profiler.Engine.reads_skipped
    with_skip.skip_stats.Profiler.Engine.writes_skipped;

  print_endline "\n--- dependences (paper format, Fig. 2.1) ---";
  print_string (Profiler.Serial.report result);

  print_endline "\n--- program execution tree (§2.3.6) ---";
  print_string (Profiler.Pet.to_string result.pet result.deps)
