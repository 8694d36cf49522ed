(* The analysis commands: the paper's three phases (Fig. 1.3) one at a time —
   profile, the PET, CUs, discovery and ranking — plus explaining
   dependences and looking for races. *)

open Cmdliner
open Terms

let static prog =
  Obs.Span.with_ ~phase:"static" (fun () -> Mil.Static.analyze prog)

let cus prog = (Cunit.Top_down.build (static prog)).Cunit.Top_down.cus

(* The whole-program CU graph over profiled dependences. *)
let cu_graph prog deps = Cunit.Graph.build ~cus:(cus prog) ~deps

let list_cmd =
  let doc = "List the bundled workload programs." in
  let run () =
    List.iter
      (fun (w : Workloads.Registry.t) ->
        Printf.printf "%-14s %-10s size=%-6d %s\n" w.name w.suite w.default_size
          (if w.parallel_target then "(multi-threaded target)" else ""))
      Workloads.Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let source_cmd =
  let doc = "Print a workload's numbered source." in
  let run wl = print_string (Mil.Pretty.render_program wl.prog) in
  Cmd.v (Cmd.info "source" ~doc) @@ on_workload (Term.const run)

let profile_cmd =
  let doc = "Run the data-dependence profiler and print the dependence report." in
  let run (config : Profiler.Profile.config) output obs { w; prog; _ } =
    with_obs obs @@ fun () ->
    let r = Profiler.Profile.run config prog in
    Option.iter
      (fun path -> write_out path (fun p -> Profiler.Depfile.write p r.deps))
      output;
    let deps = Profiler.Dep.Set_.cardinal r.deps in
    if config.workers > 0 then
      Printf.printf "# parallel profiler: %d workers, %d accesses, %d deps\n"
        config.workers r.accesses deps
    else begin
      Printf.printf "# serial profiler: %d accesses, %d deps (merging %.1fx)\n"
        r.accesses deps r.merging_factor;
      if config.skip then
        Printf.printf "# skipped: %d reads, %d writes\n"
          r.skip_stats.reads_skipped r.skip_stats.writes_skipped
    end;
    print_string (Profiler.Serial.report ~threads:w.parallel_target r);
    (* With --stats, also run the downstream phases over the profiled
       dependences so the export carries the complete pipeline cost
       breakdown (profiling, CU construction, discovery). *)
    if obs.stats <> None then begin
      let st = static prog in
      ignore
        (Discovery.Loops.analyze_all st (Cunit.Top_down.build st) r.deps r.pet)
    end
  in
  Cmd.v (Cmd.info "profile" ~doc) @@
    on_workload Term.(
      const run $ profile_config
      $ output
          ~doc:"Also write the merged dependences to FILE (discopop-deps \
                format, readable with `discopop read-deps`)."
      $ obs)

let read_deps_cmd =
  let doc = "Read a dependence file back and print it in the report format." in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Print the ranked provenance table (as `discopop explain`) \
                 instead of the dependence report; witness columns are \
                 populated from the provenance persisted in v2 files.")
  in
  let run file explain =
    let deps = Profiler.Depfile.read file in
    Printf.printf "# %d records, %d instances\n"
      (Profiler.Dep.Set_.cardinal deps)
      (Profiler.Dep.Set_.occurrences deps);
    if explain then print_string (Profiler.Report.render_explain deps)
    else print_string (Profiler.Report.render deps)
  in
  Cmd.v (Cmd.info "read-deps" ~doc)
    Term.(const run $ file_pos "FILE" $ explain_arg)

let pet_cmd =
  let doc = "Print the program execution tree (§2.3.6)." in
  let run obs wl =
    with_obs obs @@ fun () ->
    let r = Profiler.Serial.profile wl.prog in
    print_string (Profiler.Pet.to_string r.pet r.deps)
  in
  Cmd.v (Cmd.info "pet" ~doc) @@ on_workload Term.(const run $ trace_only)

let cus_cmd =
  let doc = "Construct computational units (top-down) and print them." in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Emit the whole-program CU graph as graphviz.")
  in
  let run dot obs { prog; _ } =
    with_obs obs @@ fun () ->
    if dot then
      let deps = (Profiler.Serial.profile prog).deps in
      print_string (Cunit.Graph.to_dot (cu_graph prog deps))
    else List.iter (fun cu -> print_endline (Cunit.Cu.to_string cu)) (cus prog)
  in
  Cmd.v (Cmd.info "cus" ~doc) @@ on_workload Term.(const run $ dot_arg $ obs)

let discover_cmd =
  let doc = "Run the full pipeline and print ranked parallelization suggestions." in
  let run threads obs { prog; _ } =
    with_obs obs @@ fun () ->
    let report = Discovery.Suggestion.analyze ~threads prog in
    print_string (Discovery.Suggestion.render report);
    print_endline "\nloop classification:";
    List.iter
      (fun a -> Printf.printf "  %s\n" (Discovery.Loops.to_string a))
      report.loops
  in
  Cmd.v (Cmd.info "discover" ~doc) @@
    on_workload Term.(
      const run
      $ threads ~doc:"Thread count assumed by the local-speedup metric."
      $ obs)

let explain_cmd =
  let doc =
    "Profile a workload and explain every reported dependence: a ranked \
     provenance table with each record's first dynamic witness and \
     false-positive risk, or (with --dot) a risk-annotated CU graph."
  in
  let top_arg =
    Arg.(value & opt non_negative 0 & info [ "top" ] ~docv:"N"
           ~doc:"Show only the N hottest records (0 = all).")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Emit the CU graph as graphviz with risk-annotated \
                 dependence edges instead of the table; edges at or above \
                 the risk threshold render dashed.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.5 & info [ "risk-threshold" ] ~docv:"R"
           ~doc:"Risk at or above which a --dot edge renders dashed.")
  in
  let run (config : Profiler.Profile.config) top dot risk_threshold obs
      { w; prog; _ } =
    with_obs obs @@ fun () ->
    let deps = (Profiler.Profile.run config prog).deps in
    if dot then
      print_string (Cunit.Graph.to_dot ~risk_threshold (cu_graph prog deps))
    else begin
      let shadow =
        match (config.shadow, config.workers) with
        | Signature s, 0 -> Printf.sprintf "signature(%d slots)" s
        | Perfect, 0 -> "perfect"
        | Signature s, n -> Printf.sprintf "signature(%d slots, %d workers)" s n
        | Perfect, n -> Printf.sprintf "perfect (%d workers)" n
      in
      Printf.printf "# explain %s: shadow=%s%s\n" w.name shadow
        (if config.skip then ", skip" else "");
      print_string
        (Profiler.Report.render_explain ~top ~threads:w.parallel_target deps)
    end
  in
  Cmd.v (Cmd.info "explain" ~doc) @@
    on_workload Term.(
      const run $ profile_config $ top_arg $ dot_arg $ threshold_arg $ obs)

let races_cmd =
  let doc =
    "Profile a multi-threaded target and report potential data races."
  in
  let schedules_arg =
    Arg.(value & opt positive 5 & info [ "schedules" ] ~docv:"N"
           ~doc:"Number of thread schedules to try.")
  in
  (* The paper's rule (§2.3.4): timestamp reversals under scrambled
     pushes, over [schedules] seeds. *)
  let run schedules obs { prog; _ } =
    with_obs obs @@ fun () ->
    let found = Hashtbl.create 8 in
    for seed = 1 to schedules do
      List.iter
        (fun race -> Hashtbl.replace found race ())
        (Profiler.Serial.profile ~scramble_unlocked:true ~seed prog).races
    done;
    if Hashtbl.length found = 0 then
      print_endline "no potential races observed on these schedules"
    else
      Hashtbl.iter
        (fun (var, l1, l2) () ->
          Printf.printf "potential race on %s between lines %d and %d\n" var
            l1 l2)
        found
  in
  Cmd.v (Cmd.info "races" ~doc) @@
    on_workload Term.(const run $ schedules_arg $ trace_only)

let cmds =
  [ list_cmd; source_cmd; profile_cmd; read_deps_cmd; pet_cmd; cus_cmd;
    discover_cmd; explain_cmd; races_cmd ]
