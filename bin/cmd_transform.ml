(* The transform commands: the Mil.Pass cleanup pipeline, and applying a
   ranked suggestion with optional validation and measurement. *)

open Cmdliner
open Terms

let emit_arg what =
  Arg.(value & flag & info [ "emit" ]
         ~doc:(Printf.sprintf "Print the %s program's numbered source." what))

let optimize_cmd =
  let doc =
    "Run the Mil.Pass cleanup pipeline on a workload and report the executed \
     access-event reduction. Passes run to fixpoint in pipeline order; every \
     rewrite is observation-preserving (the optimized program is \
     differentially checked against the seed here, and a pass that cannot \
     prove a program safe refuses it with a pass.<name>.refused click rather \
     than rewriting). Writes PASSES_<workload>.json; an observation diff \
     exits non-zero."
  in
  let passes_arg =
    Arg.(value & opt (some string) None & info [ "passes" ] ~docv:"LIST"
           ~doc:"Comma-separated pass selection, run in the given order \
                 (default: the full pipeline; see `discopop optimize --help` \
                 output of a failed name for the registry).")
  in
  let run passes emit obs { w; size; prog = seed } : unit =
    exit
    @@ with_obs obs
    @@ fun () ->
    let passes =
      Option.map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun x -> x <> ""))
        passes
    in
    let report = or_die (Mil.Pass.run ?passes seed) in
    let events p =
      let r = Mil.Interp.run p in
      r.r_stats.reads + r.r_stats.writes
    in
    let before = events seed and after = events report.program in
    let ratio = float_of_int after /. float_of_int (max 1 before) in
    let diffs =
      Transform.Validate.diff_observations
        (Transform.Validate.observe seed)
        (Transform.Validate.observe report.program)
    in
    let refused = not (Mil.Pass.sequential_program seed) in
    Printf.printf "# optimize %s (size %d)\n" w.name size;
    List.iter
      (fun (p, n) -> Printf.printf "pass %-10s %d rewrite(s)\n" p n)
      report.per_pass;
    Printf.printf
      "%d rewrite(s) in %d round(s); executed access events %d -> %d \
       (ratio %.3f)%s\n"
      report.changes report.rounds before after ratio
      (if refused then " [sync constructs: restructuring passes refused]"
       else "");
    List.iter (Printf.printf "OBSERVATION DIFF: %s\n") diffs;
    if emit then
      Printf.printf "\n%s\n" (Mil.Pretty.render_program report.program);
    let open Obs.Json in
    write_json
      (Printf.sprintf "PASSES_%s.json" w.name)
      (Obj
         [ ("workload", String w.name);
           ("size", Int size);
           ( "passes",
             List
               (List.map
                  (fun (p, n) -> Obj [ ("name", String p); ("changes", Int n) ])
                  report.per_pass) );
           ("rounds", Int report.rounds);
           ("changes", Int report.changes);
           ("events_before", Int before);
           ("events_after", Int after);
           ("event_ratio", Float ratio);
           ("refused", Bool refused);
           ("observation_diffs", List (List.map (fun d -> String d) diffs));
           ("ok", Bool (diffs = [])) ]);
    if diffs <> [] then 1 else 0
  in
  Cmd.v (Cmd.info "optimize" ~doc) @@
    on_workload Term.(const run $ passes_arg $ emit_arg "optimized" $ obs)

(* The scheduler seeds --validate runs under: the default ones first. *)
let seed_list n =
  List.init n (fun k ->
      Option.value ~default:((k * 99991) + 17)
        (List.nth_opt Transform.Validate.default_seeds k))

let parallelize_cmd =
  let doc =
    "Apply a ranked suggestion to the workload: DOALL loops become chunked \
     Par blocks with privatization and reduction rewriting, DOACROSS loops \
     pipelined chunks with locked hand-offs, SPMD/MPMD tasks Par-spawned \
     bodies. With --validate the transformed program is checked \
     differentially against the serial original (state equivalence under \
     several interleaving seeds, plus a re-profiling race check); a failed \
     validation exits non-zero."
  in
  let suggestion_arg =
    Arg.(value & opt non_negative 0 & info [ "suggestion" ] ~docv:"K"
           ~doc:"1-based rank of the suggestion to apply (as printed by \
                 `discopop discover`); 0 applies the best transformable one.")
  in
  let chunks_arg =
    Arg.(value & opt positive 4 & info [ "chunks" ] ~docv:"C"
           ~doc:"Chunk/thread count for chunked loop transforms.")
  in
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Differentially validate the transformed program; failure \
                 exits non-zero (like trace-check).")
  in
  let seeds_arg =
    Arg.(value & opt positive 3 & info [ "seeds" ] ~docv:"S"
           ~doc:"Number of scheduler seeds for --validate.")
  in
  let measure_arg =
    Arg.(value & flag & info [ "measure" ]
           ~doc:"Execute the transformed program on a work-stealing pool of \
                 real domains (1..--domains sweep, warmup + repetitions) and \
                 report wall-clock speedup vs the sequential original, with \
                 an output-equality check per run. Writes \
                 MEASURE_<workload>.json; unequal output exits non-zero.")
  in
  let domains_arg =
    Arg.(value & opt positive 4 & info [ "domains" ] ~docv:"N"
           ~doc:"Maximum domain count for the --measure sweep.")
  in
  let warmup_arg =
    Arg.(value & opt non_negative 1 & info [ "warmup" ] ~docv:"W"
           ~doc:"Untimed warmup runs per --measure configuration.")
  in
  let reps_arg =
    Arg.(value & opt positive 3 & info [ "reps" ] ~docv:"R"
           ~doc:"Timed repetitions per --measure configuration (median is \
                 reported).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print a machine-readable JSON summary to stdout instead of \
                 the human report (diagnostics still go to stderr).")
  in
  let optimize_arg =
    Arg.(value & flag & info [ "optimize" ]
           ~doc:"Run the Mil.Pass cleanup pipeline on the transformed \
                 program before validation/measurement — folds the inserted \
                 chunk-bound arithmetic and privatization residue. \
                 Observation-preserving by construction (and still covered \
                 by --validate / --measure downstream).")
  in
  let run suggestion chunks validate seeds emit output threads measure domains
      warmup reps json optimize obs { w; size; prog } : unit =
    exit
    @@ with_obs obs
    @@ fun () ->
    let open Obs.Json in
    let report = Discovery.Suggestion.analyze ~threads prog in
    let buf = Buffer.create 1024 in
    let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    out "# parallelize %s (size %d, %d chunks)\n" w.name size chunks;
    let applied, skipped =
      if suggestion = 0 then
        match Transform.Parallelize.apply_first ~chunks report with
        | Ok (t, skipped) -> (Ok t, skipped)
        | Error skipped -> (Error "no transformable suggestion", skipped)
      else
        match List.nth_opt report.suggestions (suggestion - 1) with
        | None ->
            ( Error
                (Printf.sprintf "no suggestion #%d (%d available)" suggestion
                   (List.length report.suggestions)),
              [] )
        | Some s -> (
            match Transform.Parallelize.apply ~chunks report s with
            | Ok t -> (Ok t, [])
            | Error e ->
                ( Error
                    (Printf.sprintf "suggestion #%d not transformable"
                       suggestion),
                  [ (s, e) ] ))
    in
    (* Rejection diagnostics go to stderr so stdout stays a clean report (or
       clean JSON with --json); the JSON summary lists them too. *)
    let skipped =
      List.map
        (fun ((s : Discovery.Suggestion.t), reason) ->
          let kind = Discovery.Suggestion.kind_to_string s.kind in
          Printf.eprintf "parallelize: skipped %s @ region %d: %s\n" kind
            s.region reason;
          Obj
            [ ("kind", String kind);
              ("region", Int s.region);
              ("reason", String reason) ])
        skipped
    in
    let print_json fields = if json then print_endline (pretty (Obj fields)) in
    let code =
      match applied with
      | Error msg ->
          Printf.eprintf "parallelize: error: %s\n" msg;
          print_json
            [ ("workload", String w.name);
              ("ok", Bool false);
              ("error", String msg);
              ("skipped", List skipped) ];
          1
      | Ok t ->
          let t =
            if not optimize then t
            else
              match Mil.Pass.run t.transformed with
              | Ok r ->
                  out "optimize: %d rewrite(s) in %d round(s) (%s)\n" r.changes
                    r.rounds
                    (String.concat ", "
                       (List.filter_map
                          (fun (p, n) ->
                            if n > 0 then Some (Printf.sprintf "%s %d" p n)
                            else None)
                          r.per_pass));
                  { t with transformed = r.program }
              | Error e ->
                  Printf.eprintf "parallelize: --optimize failed: %s\n" e;
                  t
          in
          out "%s" (Transform.Parallelize.plan_to_string t.plan);
          if emit then out "\n%s\n" (Mil.Pretty.render_program t.transformed);
          let chosen = t.plan.p_suggestion in
          out "modeled speedup (Amdahl x imbalance): %.2fx\n"
            chosen.score.combined;
          let d =
            Transform.Validate.measure ~label:w.name ~original:t.original
              t.transformed
          in
          out "%s" (Transform.Validate.distribution_to_string d);
          let verdict =
            if not validate then None
            else
              Some
                (Transform.Validate.differential ~seeds:(seed_list seeds)
                   ~original:t.original ~transformed:t.transformed ())
          in
          Option.iter
            (fun v -> out "%s" (Transform.Validate.verdict_to_string v))
            verdict;
          let measured =
            if not measure then None
            else begin
              let m =
                Transform.Measure.measure ~domains ~warmup ~reps ~name:w.name
                  ~original:t.original t.transformed
              in
              out "\n%s" (Transform.Measure.to_string m);
              write_json
                (Printf.sprintf "MEASURE_%s.json" w.name)
                (Transform.Measure.to_json m);
              if not m.m_equal then
                Printf.eprintf
                  "parallelize: transformed output differs from sequential \
                   under --measure\n";
              Some m
            end
          in
          let ok =
            Option.fold ~none:true ~some:(fun v -> v.Transform.Validate.v_ok)
              verdict
            && Option.fold ~none:true
                 ~some:(fun m -> m.Transform.Measure.m_equal)
                 measured
          in
          print_json
            ([ ("workload", String w.name);
               ("size", Int size);
               ("chunks", Int chunks);
               ( "kind",
                 String (Discovery.Suggestion.kind_to_string chosen.kind) );
               ("region", Int chosen.region);
               ("line", Int t.plan.p_line);
               ("modeled_speedup", Float chosen.score.combined);
               ("proxy_speedup", Float d.d_measured_speedup);
               ("skipped", List skipped) ]
            @ Option.to_list
                (Option.map
                   (fun (v : Transform.Validate.verdict) ->
                     ("validation", String (if v.v_ok then "pass" else "fail")))
                   verdict)
            @ Option.to_list
                (Option.map (fun m -> ("measure", Transform.Measure.to_json m))
                   measured)
            @ [ ("ok", Bool ok) ]);
          if ok then 0 else 1
    in
    if not json then print_string (Buffer.contents buf);
    Option.iter (fun path -> write_text path (Buffer.contents buf)) output;
    code
  in
  Cmd.v (Cmd.info "parallelize" ~doc) @@
    on_workload Term.(
      const run $ suggestion_arg $ chunks_arg $ validate_arg $ seeds_arg
      $ emit_arg "transformed"
      $ output ~doc:"Also write the transform report to FILE."
      $ threads ~doc:"Thread count assumed by the modeled-speedup metric."
      $ measure_arg $ domains_arg $ warmup_arg $ reps_arg $ json_arg
      $ optimize_arg $ obs)

let cmds = [ optimize_cmd; parallelize_cmd ]
