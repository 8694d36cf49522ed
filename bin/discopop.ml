(* The DiscoPoP command-line tool: profile MIL workloads, construct CUs,
   discover and rank parallelism, and hunt for races — the user-facing
   counterpart of the paper's three-phase workflow (Fig. 1.3). *)

open Cmdliner

let all_workloads =
  Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Starbench.all
  @ Workloads.Bots.all @ Workloads.Apps.all @ Workloads.Splash2x.all
  @ Workloads.Numerics.all @ Workloads.Parsec.all

let find_workload name =
  match
    List.find_opt (fun (w : Workloads.Registry.t) -> w.name = name) all_workloads
  with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %s (try `discopop list`)" name)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let size_arg =
  Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N"
         ~doc:"Override the workload's input size.")

let sig_arg =
  Arg.(value & opt (some int) None & info [ "signature" ] ~docv:"SLOTS"
         ~doc:"Use a signature shadow memory with SLOTS slots instead of the \
               exact shadow memory.")

let skip_arg =
  Arg.(value & flag & info [ "skip" ]
         ~doc:"Enable skipping of repeatedly executed memory operations (§2.4).")

let workers_arg =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"W"
         ~doc:"Profile with the lock-free parallel profiler using W worker \
               domains (0 = serial).")

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* --signature/--skip/--workers as one checked profiler config: a bad value
   exits 1 with the message serve answers 400 with. *)
let profile_config_term =
  let make signature skip workers =
    let shadow =
      match signature with
      | Some slots -> Profiler.Engine.Signature slots
      | None -> Profiler.Engine.Perfect
    in
    or_die (Profiler.Profile.check { shadow; skip; workers })
  in
  Term.(const make $ sig_arg $ skip_arg $ workers_arg)

(* --stats: enable the observability layer for the run and write the
   collected phase timings / counters / gauges to FILE as JSON. *)
let stats_arg =
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
         ~doc:"Write machine-readable run statistics (phase timings, \
               counters, gauges; see README \"Observability & CI\") to FILE \
               as JSON.")

(* --trace: enable per-domain timeline tracing for the run and write the
   collected events to FILE as Chrome Trace Event JSON (chrome://tracing /
   Perfetto-loadable; validate with `discopop trace-check`). *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a per-domain event timeline (phase spans, worker chunk \
               consumption, queue depths; see README \"Tracing & explain\") \
               to FILE as Chrome Trace Event JSON, loadable in \
               chrome://tracing or Perfetto.")

let with_obs ~stats ~trace f =
  (match stats with Some _ -> Obs.enable () | None -> ());
  (match trace with
  | Some _ ->
      Obs.Trace.enable ();
      Obs.Trace.set_track "main"
  | None -> ());
  let r = f () in
  (* Allocation counters ride along in every --stats export. *)
  Obs.publish_gc ();
  let write what path write_fn =
    try
      write_fn path;
      Printf.eprintf "wrote %s\n" path
    with Sys_error msg ->
      Printf.eprintf "cannot write %s file: %s\n" what msg;
      exit 1
  in
  Option.iter (fun p -> write "stats" p Obs.write_json) stats;
  Option.iter (fun p -> write "trace" p Obs.Trace.write) trace;
  r

(* list *)
let list_cmd =
  let doc = "List the bundled workload programs." in
  let run () =
    List.iter
      (fun (w : Workloads.Registry.t) ->
        Printf.printf "%-14s %-10s size=%-6d %s\n" w.name w.suite w.default_size
          (if w.parallel_target then "(multi-threaded target)" else ""))
      all_workloads
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* source *)
let source_cmd =
  let doc = "Print a workload's numbered source." in
  let run name size =
    let w = or_die (find_workload name) in
    print_string (Mil.Pretty.render_program (Workloads.Registry.program ?size w))
  in
  Cmd.v (Cmd.info "source" ~doc) Term.(const run $ workload_arg $ size_arg)

(* profile *)
let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Also write the merged dependences to FILE (discopop-deps \
               format, readable with `discopop read-deps`).")

let profile_cmd =
  let doc = "Run the data-dependence profiler and print the dependence report." in
  let run name size (config : Profiler.Profile.config) output stats trace =
    let w = or_die (find_workload name) in
    let prog = Workloads.Registry.program ?size w in
    let save deps =
      match output with
      | None -> ()
      | Some path ->
          Profiler.Depfile.write path deps;
          Printf.eprintf "wrote %s\n" path
    in
    with_obs ~stats ~trace @@ fun () ->
    let r = Profiler.Profile.run config prog in
    save r.deps;
    if config.workers > 0 then
      Printf.printf
        "# parallel profiler: %d workers, %d accesses, %d deps\n"
        config.workers r.accesses
        (Profiler.Dep.Set_.cardinal r.deps)
    else begin
      Printf.printf "# serial profiler: %d accesses, %d deps (merging %.1fx)\n"
        r.accesses
        (Profiler.Dep.Set_.cardinal r.deps)
        r.merging_factor;
      if config.skip then
        Printf.printf "# skipped: %d reads, %d writes\n"
          r.skip_stats.Profiler.Engine.reads_skipped
          r.skip_stats.Profiler.Engine.writes_skipped
    end;
    print_string (Profiler.Serial.report ~threads:w.parallel_target r);
    (* With --stats, also run the downstream phases over the profiled
       dependences so the export carries the complete pipeline cost
       breakdown (profiling, CU construction, discovery). *)
    if stats <> None then begin
      let st =
        Obs.Span.with_ ~phase:"static" (fun () -> Mil.Static.analyze prog)
      in
      let cures = Cunit.Top_down.build st in
      ignore (Discovery.Loops.analyze_all st cures r.deps r.pet)
    end
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ workload_arg $ size_arg $ profile_config_term $ out_arg
      $ stats_arg $ trace_arg)

(* read-deps *)
let read_deps_cmd =
  let doc = "Read a dependence file back and print it in the report format." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
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
  Cmd.v (Cmd.info "read-deps" ~doc) Term.(const run $ file_arg $ explain_arg)

(* pet *)
let pet_cmd =
  let doc = "Print the program execution tree (§2.3.6)." in
  let run name size trace =
    let w = or_die (find_workload name) in
    with_obs ~stats:None ~trace @@ fun () ->
    let r = Profiler.Serial.profile (Workloads.Registry.program ?size w) in
    print_string (Profiler.Pet.to_string r.pet)
  in
  Cmd.v (Cmd.info "pet" ~doc)
    Term.(const run $ workload_arg $ size_arg $ trace_arg)

(* cus *)
let cus_cmd =
  let doc = "Construct computational units (top-down) and print them." in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the whole-program CU graph \
                                             as graphviz.")
  in
  let run name size dot stats trace =
    let w = or_die (find_workload name) in
    let prog = Workloads.Registry.program ?size w in
    with_obs ~stats ~trace @@ fun () ->
    let st = Obs.Span.with_ ~phase:"static" (fun () -> Mil.Static.analyze prog) in
    let res = Cunit.Top_down.build st in
    if dot then begin
      let r = Profiler.Serial.profile prog in
      let g =
        Cunit.Graph.build ~cus:res.Cunit.Top_down.cus ~deps:r.Profiler.Serial.deps ()
      in
      print_string (Cunit.Graph.to_dot g)
    end
    else
      List.iter
        (fun cu -> print_endline (Cunit.Cu.to_string cu))
        res.Cunit.Top_down.cus
  in
  Cmd.v (Cmd.info "cus" ~doc)
    Term.(const run $ workload_arg $ size_arg $ dot_arg $ stats_arg $ trace_arg)

(* discover *)
let discover_cmd =
  let doc = "Run the full pipeline and print ranked parallelization suggestions." in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"T"
           ~doc:"Thread count assumed by the local-speedup metric.")
  in
  let run name size threads stats trace =
    let w = or_die (find_workload name) in
    with_obs ~stats ~trace @@ fun () ->
    let report =
      Discovery.Suggestion.analyze ~threads (Workloads.Registry.program ?size w)
    in
    print_string (Discovery.Suggestion.render report);
    print_endline "\nloop classification:";
    List.iter
      (fun a -> Printf.printf "  %s\n" (Discovery.Loops.to_string a))
      report.Discovery.Suggestion.loops
  in
  Cmd.v (Cmd.info "discover" ~doc)
    Term.(const run $ workload_arg $ size_arg $ threads_arg $ stats_arg
          $ trace_arg)

(* explain *)
let explain_cmd =
  let doc =
    "Profile a workload and explain every reported dependence: a ranked \
     provenance table with each record's first dynamic witness and \
     false-positive risk, or (with --dot) a risk-annotated CU graph."
  in
  let top_arg =
    Arg.(value & opt int 0 & info [ "top" ] ~docv:"N"
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
  let run name size (config : Profiler.Profile.config) top dot threshold stats
      trace =
    let w = or_die (find_workload name) in
    let prog = Workloads.Registry.program ?size w in
    with_obs ~stats ~trace @@ fun () ->
    let deps = (Profiler.Profile.run config prog).deps in
    let shadow_name =
      match (config.shadow, config.workers) with
      | Signature s, 0 -> Printf.sprintf "signature(%d slots)" s
      | Perfect, 0 -> "perfect"
      | Signature s, n -> Printf.sprintf "signature(%d slots, %d workers)" s n
      | Perfect, n -> Printf.sprintf "perfect (%d workers)" n
    in
    if dot then begin
      let st = Obs.Span.with_ ~phase:"static" (fun () -> Mil.Static.analyze prog) in
      let res = Cunit.Top_down.build st in
      let g = Cunit.Graph.build ~cus:res.Cunit.Top_down.cus ~deps () in
      print_string (Cunit.Graph.to_dot ~risk_threshold:threshold g)
    end
    else begin
      Printf.printf "# explain %s: shadow=%s%s\n" w.name shadow_name
        (if config.skip then ", skip" else "");
      print_string
        (Profiler.Report.render_explain ~top ~threads:w.parallel_target deps)
    end
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ workload_arg $ size_arg $ profile_config_term $ top_arg
      $ dot_arg $ threshold_arg $ stats_arg $ trace_arg)

(* trace-check *)
let trace_check_cmd =
  let doc =
    "Validate a Chrome Trace Event file produced by --trace: parseable by \
     the bundled JSON parser, non-empty, required fields present, \
     timestamps monotone per track."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    let contents =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let die msg =
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
    in
    match Obs.Json.of_string contents with
    | Error msg -> die (Printf.sprintf "unparseable JSON (%s)" msg)
    | Ok j -> (
        match Obs.Json.member "traceEvents" j with
        | Some (Obs.Json.List []) -> die "traceEvents is empty"
        | Some (Obs.Json.List evs) ->
            (* Buffers are appended in clock order, so within one (pid, tid)
               track the exported ts sequence must be non-decreasing. *)
            let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
            List.iteri
              (fun i ev ->
                let field name =
                  match Obs.Json.member name ev with
                  | Some v -> v
                  | None ->
                      die (Printf.sprintf "event %d lacks field %S" i name)
                in
                let int_field name =
                  match Obs.Json.get_int (field name) with
                  | Some v -> v
                  | None -> die (Printf.sprintf "event %d: %S not an int" i name)
                in
                ignore (field "name");
                (match Obs.Json.get_string (field "ph") with
                | Some ("B" | "E" | "i" | "C" | "M" | "X") -> ()
                | _ -> die (Printf.sprintf "event %d: bad \"ph\"" i));
                let ts =
                  match Obs.Json.get_float (field "ts") with
                  | Some t -> t
                  | None -> die (Printf.sprintf "event %d: \"ts\" not a number" i)
                in
                let track = (int_field "pid", int_field "tid") in
                (match Hashtbl.find_opt last_ts track with
                | Some prev when ts < prev ->
                    die
                      (Printf.sprintf
                         "event %d: ts %.3f goes backwards on track %d/%d" i ts
                         (fst track) (snd track))
                | _ -> ());
                Hashtbl.replace last_ts track ts)
              evs;
            Printf.printf "trace ok: %d events, %d tracks\n" (List.length evs)
              (Hashtbl.length last_ts)
        | _ -> die "no traceEvents list")
  in
  Cmd.v (Cmd.info "trace-check" ~doc) Term.(const run $ file_arg)

(* check-bench *)
let check_bench_cmd =
  let doc =
    "Compare a BENCH_*.json summary against a checked-in perf baseline. The \
     baseline maps metric names to an expected value and a tolerated \
     [min_ratio, max_ratio] band on current/expected — or, for metrics whose \
     healthy value is ~0 (allocation meters), an absolute cap \
     {\"max_abs\": c}. Any metric outside its band or cap fails the check \
     (exit 1). Metrics are resolved in the summary's gauges, then counters. \
     With --update the banded values are instead rewritten in place from the \
     summary (bands, caps and the comment are preserved) so the baseline can \
     be refreshed from a reference run without hand-editing."
  in
  let bench_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCH_JSON")
  in
  let baseline_arg =
    Arg.(required & opt (some file) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"The baseline JSON: {\"metrics\": {name: {\"value\": v, \
                 \"min_ratio\": r, \"max_ratio\": R} | {\"max_abs\": c}}}.")
  in
  let update_arg =
    Arg.(value & flag & info [ "update" ]
           ~doc:"Rewrite the baseline's metric values in place from \
                 BENCH_JSON instead of gating against them. Ratio bands, \
                 max_abs caps and the comment are preserved verbatim.")
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let run bench_path baseline_path update =
    let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
    let parse path =
      match Obs.Json.of_string (read_file path) with
      | Ok j -> j
      | Error msg -> die "%s: unparseable JSON (%s)" path msg
    in
    let bench = parse bench_path in
    let baseline = parse baseline_path in
    let number j = match Obs.Json.get_float j with
      | Some v -> Some v
      | None -> Option.map float_of_int (Obs.Json.get_int j)
    in
    (* A metric's current value: the summary's gauges section first, then
       counters, then the top level (wall_s). *)
    let current name =
      let metrics = Obs.Json.member "metrics" bench in
      let in_section s =
        Option.bind metrics (Obs.Json.member s)
        |> Fun.flip Option.bind (Obs.Json.member name)
        |> Fun.flip Option.bind number
      in
      match in_section "gauges" with
      | Some v -> Some v
      | None -> (
          match in_section "counters" with
          | Some v -> Some v
          | None -> Option.bind (Obs.Json.member name bench) number)
    in
    let entries =
      match Obs.Json.member "metrics" baseline with
      | Some (Obs.Json.Obj kvs) -> kvs
      | _ -> die "%s: no \"metrics\" object" baseline_path
    in
    (* An empty gate would pass any summary — treat it as a broken baseline,
       not a success. *)
    if entries = [] then
      die "%s: \"metrics\" is empty; refusing to pass an empty gate"
        baseline_path;
    (* Baseline numbers are kept human-readable: integers stay integral, the
       rest rounds to three significant digits (measurements carry no more). *)
    let render v =
      if Float.is_integer v && Float.abs v < 1e6 then Printf.sprintf "%.0f" v
      else Printf.sprintf "%.3g" v
    in
    if update then begin
      (* Refresh values in place; bands, caps, the comment and any other
         top-level keys pass through untouched so the file stays reviewable
         as a diff of numbers. *)
      let refreshed = ref 0 in
      let entries' =
        List.map
          (fun (name, spec) ->
            match Obs.Json.member "max_abs" spec with
            | Some _ -> (name, spec)  (* a policy cap, not a measurement *)
            | None -> (
                match current name with
                | None ->
                    die "%s: metric %S missing from %s; not updating" bench_path
                      name bench_path
                | Some v ->
                    (match Option.bind (Obs.Json.member "value" spec) number with
                    | Some old when old <> v ->
                        incr refreshed;
                        Printf.printf "update %-45s %s -> %s\n" name
                          (render old) (render v)
                    | Some _ -> ()
                    | None ->
                        die "%s: metric %S lacks numeric \"value\""
                          baseline_path name);
                    let spec' =
                      match spec with
                      | Obs.Json.Obj kvs ->
                          Obs.Json.Obj
                            (List.map
                               (fun (k, j) ->
                                 if k = "value" then
                                   (k, Obs.Json.Float
                                         (float_of_string (render v)))
                                 else (k, j))
                               kvs)
                      | _ -> die "%s: metric %S is not an object" baseline_path
                               name
                    in
                    (name, spec')))
          entries
      in
      let top =
        match baseline with
        | Obs.Json.Obj kvs ->
            List.map
              (fun (k, j) ->
                if k = "metrics" then (k, Obs.Json.Obj entries') else (k, j))
              kvs
        | _ -> die "%s: not a JSON object" baseline_path
      in
      (* Hand-rolled layout matching the committed style: one metric per
         line, so refreshes diff line-by-line. *)
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      let n_top = List.length top in
      List.iteri
        (fun i (k, j) ->
          let sep = if i = n_top - 1 then "" else "," in
          match (k, j) with
          | "metrics", Obs.Json.Obj ms ->
              Buffer.add_string buf "  \"metrics\": {\n";
              let n = List.length ms in
              List.iteri
                (fun i (name, spec) ->
                  let fields =
                    match spec with
                    | Obs.Json.Obj kvs ->
                        List.map
                          (fun (f, v) ->
                            Printf.sprintf "\"%s\": %s" f
                              (match number v with
                              | Some x -> render x
                              | None -> Obs.Json.to_string v))
                          kvs
                    | _ -> [ Obs.Json.to_string spec ]
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "    \"%s\": { %s }%s\n" name
                       (String.concat ", " fields)
                       (if i = n - 1 then "" else ",")))
                ms;
              Buffer.add_string buf (Printf.sprintf "  }%s\n" sep)
          | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  \"%s\": %s%s\n" k (Obs.Json.to_string j) sep))
        top;
      Buffer.add_string buf "}\n";
      let oc = open_out_bin baseline_path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Buffer.contents buf));
      Printf.printf "%s: refreshed %d of %d metric value(s) from %s\n"
        baseline_path !refreshed (List.length entries') bench_path
    end
    else begin
    let failures = ref 0 in
    let missing = ref [] in
    List.iter
      (fun (name, spec) ->
        let field f =
          match Option.bind (Obs.Json.member f spec) number with
          | Some v -> v
          | None -> die "%s: metric %S lacks numeric %S" baseline_path name f
        in
        match (current name, Obs.Json.member "max_abs" spec) with
        | None, _ ->
            incr failures;
            missing := name :: !missing;
            Printf.printf "FAIL %-45s missing from %s\n" name bench_path
        | Some v, Some _ ->
            (* Absolute cap: for metrics whose healthy value is ~0 (the
               allocation meters), a ratio against the baseline is
               numerically meaningless — gate on the ceiling itself. *)
            let cap = field "max_abs" in
            if v <= cap then
              Printf.printf "ok   %-45s %g (cap %g)\n" name v cap
            else begin
              incr failures;
              Printf.printf "FAIL %-45s %g exceeds cap %g\n" name v cap
            end
        | Some v, None -> (
            let expected = field "value" in
            let min_ratio = field "min_ratio"
            and max_ratio = field "max_ratio" in
            if expected = 0.0 then
              (* No meaningful ratio; require an exact zero. *)
              if v = 0.0 then Printf.printf "ok   %-45s 0 (= baseline)\n" name
              else begin
                incr failures;
                Printf.printf "FAIL %-45s %g vs baseline 0\n" name v
              end
            else
              let ratio = v /. expected in
              if ratio >= min_ratio && ratio <= max_ratio then
                Printf.printf
                  "ok   %-45s %g (%.2fx of baseline, band %.2f-%.2f)\n" name v
                  ratio min_ratio max_ratio
              else begin
                incr failures;
                Printf.printf
                  "FAIL %-45s %g (%.2fx of baseline %g, band %.2f-%.2f)\n" name
                  v ratio expected min_ratio max_ratio
              end))
      entries;
    if !failures > 0 then begin
      (* Missing metrics also go to stderr by name: a truncated summary must
         fail the gate as loudly as an out-of-band one. *)
      List.iter
        (fun name ->
          Printf.eprintf "check-bench: metric %S missing from %s\n" name
            bench_path)
        (List.rev !missing);
      Printf.printf "%d metric(s) out of tolerance (%d missing)\n" !failures
        (List.length !missing);
      exit 1
    end
    else
      Printf.printf "all %d metric(s) within tolerance\n" (List.length entries)
    end
  in
  Cmd.v (Cmd.info "check-bench" ~doc)
    Term.(const run $ bench_arg $ baseline_arg $ update_arg)

(* optimize *)
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
  let emit_arg =
    Arg.(value & flag & info [ "emit" ]
           ~doc:"Print the optimized program's numbered source.")
  in
  let run name size passes emit stats trace =
    let w = or_die (find_workload name) in
    let seed = Workloads.Registry.program ?size w in
    let code =
      with_obs ~stats ~trace @@ fun () ->
      let passes =
        Option.map
          (fun s -> String.split_on_char ',' s |> List.map String.trim
                    |> List.filter (fun x -> x <> ""))
          passes
      in
      let report = or_die (Mil.Pass.run ?passes seed) in
      let events p =
        let r = Mil.Interp.run p in
        r.Mil.Interp.r_stats.reads + r.Mil.Interp.r_stats.writes
      in
      let before = events seed and after = events report.program in
      let ratio = float_of_int after /. float_of_int (max 1 before) in
      let diffs =
        Transform.Validate.diff_observations
          (Transform.Validate.observe seed)
          (Transform.Validate.observe report.program)
      in
      let refused = not (Mil.Pass.sequential_program seed) in
      Printf.printf "# optimize %s (size %d)\n" w.name
        (match size with Some s -> s | None -> w.default_size);
      List.iter
        (fun (p, n) -> Printf.printf "pass %-10s %d rewrite(s)\n" p n)
        report.per_pass;
      Printf.printf
        "%d rewrite(s) in %d round(s); executed access events %d -> %d \
         (ratio %.3f)%s\n"
        report.changes report.rounds before after ratio
        (if refused then
           " [sync constructs: restructuring passes refused]"
         else "");
      List.iter (Printf.printf "OBSERVATION DIFF: %s\n") diffs;
      if emit then
        Printf.printf "\n%s\n" (Mil.Pretty.render_program report.program);
      let path = Printf.sprintf "PASSES_%s.json" w.name in
      let json =
        Obs.Json.Obj
          [ ("workload", Obs.Json.String w.name);
            ( "size",
              Obs.Json.Int
                (match size with Some s -> s | None -> w.default_size) );
            ( "passes",
              Obs.Json.List
                (List.map
                   (fun (p, n) ->
                     Obs.Json.Obj
                       [ ("name", Obs.Json.String p);
                         ("changes", Obs.Json.Int n) ])
                   report.per_pass) );
            ("rounds", Obs.Json.Int report.rounds);
            ("changes", Obs.Json.Int report.changes);
            ("events_before", Obs.Json.Int before);
            ("events_after", Obs.Json.Int after);
            ("event_ratio", Obs.Json.Float ratio);
            ("refused", Obs.Json.Bool refused);
            ( "observation_diffs",
              Obs.Json.List (List.map (fun d -> Obs.Json.String d) diffs) );
            ("ok", Obs.Json.Bool (diffs = [])) ]
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Obs.Json.pretty json);
          Out_channel.output_char oc '\n');
      Printf.eprintf "wrote %s\n" path;
      if diffs <> [] then 1 else 0
    in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ workload_arg $ size_arg $ passes_arg $ emit_arg $ stats_arg
      $ trace_arg)

(* parallelize *)
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
    Arg.(value & opt int 0 & info [ "suggestion" ] ~docv:"K"
           ~doc:"1-based rank of the suggestion to apply (as printed by \
                 `discopop discover`); 0 applies the best transformable one.")
  in
  let chunks_arg =
    Arg.(value & opt int 4 & info [ "chunks" ] ~docv:"C"
           ~doc:"Chunk/thread count for chunked loop transforms.")
  in
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Differentially validate the transformed program; failure \
                 exits non-zero (like trace-check).")
  in
  let seeds_arg =
    Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"S"
           ~doc:"Number of scheduler seeds for --validate.")
  in
  let emit_arg =
    Arg.(value & flag & info [ "emit" ]
           ~doc:"Print the transformed program's numbered source.")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"T"
           ~doc:"Thread count assumed by the modeled-speedup metric.")
  in
  let report_out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also write the transform report to FILE.")
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
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
           ~doc:"Maximum domain count for the --measure sweep.")
  in
  let warmup_arg =
    Arg.(value & opt int 1 & info [ "warmup" ] ~docv:"W"
           ~doc:"Untimed warmup runs per --measure configuration.")
  in
  let reps_arg =
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"R"
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
  let seed_list n =
    List.init n (fun k ->
        match List.nth_opt Transform.Validate.default_seeds k with
        | Some s -> s
        | None -> (k * 99991) + 17)
  in
  let run name size suggestion chunks validate seeds emit output threads
      measure domains warmup reps json optimize stats trace =
    let w = or_die (find_workload name) in
    let prog = Workloads.Registry.program ?size w in
    let code =
      with_obs ~stats ~trace @@ fun () ->
      let report = Discovery.Suggestion.analyze ~threads prog in
      let buf = Buffer.create 1024 in
      let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      out "# parallelize %s (size %d, %d chunks)\n" w.name
        (match size with Some s -> s | None -> w.default_size)
        chunks;
      (* Rejection diagnostics go to stderr so stdout stays a clean report
         (or clean JSON with --json); they are also collected for the JSON
         summary. *)
      let skipped_acc = ref [] in
      let skip (s : Discovery.Suggestion.t) reason =
        let kind = Discovery.Suggestion.kind_to_string s.kind in
        Printf.eprintf "parallelize: skipped %s @ region %d: %s\n" kind
          s.region reason;
        skipped_acc := (kind, s.region, reason) :: !skipped_acc
      in
      let json_skipped () =
        Obs.Json.List
          (List.rev_map
             (fun (kind, region, reason) ->
               Obs.Json.Obj
                 [ ("kind", Obs.Json.String kind);
                   ("region", Obs.Json.Int region);
                   ("reason", Obs.Json.String reason) ])
             !skipped_acc)
      in
      let applied =
        if suggestion = 0 then
          match Transform.Parallelize.apply_first ~chunks report with
          | Ok (t, skipped) ->
              List.iter (fun (s, e) -> skip s e) skipped;
              Ok t
          | Error skipped ->
              List.iter (fun (s, e) -> skip s e) skipped;
              Error "no transformable suggestion"
        else
          match
            List.nth_opt report.Discovery.Suggestion.suggestions
              (suggestion - 1)
          with
          | None ->
              Error
                (Printf.sprintf "no suggestion #%d (%d available)" suggestion
                   (List.length report.Discovery.Suggestion.suggestions))
          | Some s -> (
              match Transform.Parallelize.apply ~chunks report s with
              | Ok t -> Ok t
              | Error e ->
                  skip s e;
                  Error (Printf.sprintf "suggestion #%d not transformable" suggestion))
      in
      let code =
        match applied with
        | Error msg ->
            Printf.eprintf "parallelize: error: %s\n" msg;
            if json then
              print_endline
                (Obs.Json.pretty
                   (Obs.Json.Obj
                      [ ("workload", Obs.Json.String w.name);
                        ("ok", Obs.Json.Bool false);
                        ("error", Obs.Json.String msg);
                        ("skipped", json_skipped ()) ]));
            1
        | Ok t ->
            let t =
              if optimize then begin
                match Mil.Pass.run t.Transform.Parallelize.transformed with
                | Ok r ->
                    out "optimize: %d rewrite(s) in %d round(s) (%s)\n"
                      r.Mil.Pass.changes r.Mil.Pass.rounds
                      (String.concat ", "
                         (List.filter_map
                            (fun (p, n) ->
                              if n > 0 then
                                Some (Printf.sprintf "%s %d" p n)
                              else None)
                            r.Mil.Pass.per_pass));
                    { t with Transform.Parallelize.transformed = r.program }
                | Error e ->
                    Printf.eprintf "parallelize: --optimize failed: %s\n" e;
                    t
              end
              else t
            in
            out "%s" (Transform.Parallelize.plan_to_string t.plan);
            if emit then
              out "\n%s\n" (Mil.Pretty.render_program t.transformed);
            let modeled =
              List.find_opt
                (fun (s : Discovery.Suggestion.t) ->
                  s.region = t.plan.Transform.Parallelize.p_region
                  && Discovery.Suggestion.kind_to_string s.kind
                     = t.plan.Transform.Parallelize.p_kind)
                report.Discovery.Suggestion.suggestions
            in
            (match modeled with
            | Some s ->
                out "modeled speedup (Amdahl x imbalance): %.2fx\n"
                  s.score.Discovery.Ranking.combined
            | None -> ());
            let d =
              Transform.Validate.measure ~label:w.name ~original:t.original
                t.transformed
            in
            out "%s" (Transform.Validate.distribution_to_string d);
            let verdict =
              if validate then
                Some
                  (Transform.Validate.differential ~seeds:(seed_list seeds)
                     ~original:t.original ~transformed:t.transformed ())
              else None
            in
            (match verdict with
            | Some v -> out "%s" (Transform.Validate.verdict_to_string v)
            | None -> ());
            let measured =
              if measure then begin
                let m =
                  Transform.Measure.measure ~domains ~warmup ~reps ~name:w.name
                    ~original:t.original t.transformed
                in
                out "\n%s" (Transform.Measure.to_string m);
                let path = Printf.sprintf "MEASURE_%s.json" w.name in
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc
                      (Obs.Json.pretty (Transform.Measure.to_json m));
                    Out_channel.output_char oc '\n');
                Printf.eprintf "wrote %s\n" path;
                if not m.Transform.Measure.m_equal then
                  Printf.eprintf
                    "parallelize: transformed output differs from sequential \
                     under --measure\n";
                Some m
              end
              else None
            in
            if json then begin
              let fields =
                [ ("workload", Obs.Json.String w.name);
                  ( "size",
                    Obs.Json.Int
                      (match size with Some s -> s | None -> w.default_size) );
                  ("chunks", Obs.Json.Int chunks);
                  ("kind", Obs.Json.String t.plan.Transform.Parallelize.p_kind);
                  ("region", Obs.Json.Int t.plan.Transform.Parallelize.p_region);
                  ("line", Obs.Json.Int t.plan.Transform.Parallelize.p_line);
                  ( "modeled_speedup",
                    match modeled with
                    | Some s ->
                        Obs.Json.Float s.score.Discovery.Ranking.combined
                    | None -> Obs.Json.Null );
                  ( "proxy_speedup",
                    Obs.Json.Float d.Transform.Validate.d_measured_speedup );
                  ("skipped", json_skipped ()) ]
              in
              let fields =
                fields
                @ (match verdict with
                  | Some v ->
                      [ ( "validation",
                          Obs.Json.String
                            (if v.Transform.Validate.v_ok then "pass"
                             else "fail") ) ]
                  | None -> [])
                @ (match measured with
                  | Some m -> [ ("measure", Transform.Measure.to_json m) ]
                  | None -> [])
              in
              let ok =
                (match verdict with
                | Some v -> v.Transform.Validate.v_ok
                | None -> true)
                && match measured with
                   | Some m -> m.Transform.Measure.m_equal
                   | None -> true
              in
              print_endline
                (Obs.Json.pretty
                   (Obs.Json.Obj (fields @ [ ("ok", Obs.Json.Bool ok) ])))
            end;
            let validate_failed =
              match verdict with
              | Some v -> not v.Transform.Validate.v_ok
              | None -> false
            in
            let measure_failed =
              match measured with
              | Some m -> not m.Transform.Measure.m_equal
              | None -> false
            in
            if validate_failed || measure_failed then 1 else 0
      in
      if not json then print_string (Buffer.contents buf);
      (match output with
      | None -> ()
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Buffer.contents buf));
          Printf.eprintf "wrote %s\n" path);
      code
    in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info "parallelize" ~doc)
    Term.(
      const run $ workload_arg $ size_arg $ suggestion_arg $ chunks_arg
      $ validate_arg $ seeds_arg $ emit_arg $ report_out_arg $ threads_arg
      $ measure_arg $ domains_arg $ warmup_arg $ reps_arg $ json_arg
      $ optimize_arg $ stats_arg $ trace_arg)

(* batch *)
let batch_cmd =
  let doc =
    "Run the full profile/CU/discovery/ranking pipeline over many workloads \
     concurrently across a bounded pool of domains, with an optional \
     content-addressed on-disk result cache (--cache DIR): a workload whose \
     program and profiler configuration are unchanged skips phase 1 \
     entirely on re-runs. A job that raises or exceeds --timeout is \
     reported as failed/timed-out without killing the batch (one retry by \
     default); any failed or timed-out job makes the exit status non-zero \
     after the full report is emitted."
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD"
           ~doc:"Workloads to run (default: every registry workload, or the \
                 $(b,--suite) selection).")
  in
  let suite_arg =
    Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"NAME"
           ~doc:"Run every workload of one suite (textbook, nas, starbench, \
                 bots, apps, splash2x, numerics, parsec).")
  in
  let jobs_arg =
    Arg.(value & opt int 4 & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent jobs (pool of N domains).")
  in
  let cache_arg =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"Content-addressed result cache directory (created if \
                 missing). Key = hash of the MIL program + profiler config; \
                 entries store Depfile-v2 dependences plus the serialized \
                 suggestion summary.")
  in
  let cache_max_mb_arg =
    Arg.(value & opt (some int) None & info [ "cache-max-mb" ] ~docv:"MB"
           ~doc:"Cap the cache directory at MB megabytes: after each \
                 publish, least-recently-used entries (oldest mtime; loads \
                 refresh it) are evicted until the directory fits. The \
                 just-published entry is never evicted.")
  in
  let cache_ttl_arg =
    Arg.(value & opt (some float) None & info [ "cache-ttl" ] ~docv:"SEC"
           ~doc:"Evict cache entries not written or read for SEC seconds, \
                 swept after each publish.")
  in
  let timeout_arg =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Per-job wall-clock budget; an overrunning job is reported \
                 as timed-out.")
  in
  let retries_arg =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"K"
           ~doc:"Extra attempts per failed or timed-out job.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT"
           ~doc:"Write the machine-readable batch report to OUT ($(b,-) = \
                 stdout). The human-readable table then goes to stderr, so \
                 OUT is pure JSON.")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"T"
           ~doc:"Thread count assumed by the local-speedup metric (part of \
                 the cache key).")
  in
  let run names suite jobs cache cache_max_mb cache_ttl timeout retries json
      profile threads stats trace =
    let ws =
      match names with
      | [] -> (
          match suite with
          | None -> all_workloads
          | Some s ->
              List.filter
                (fun (w : Workloads.Registry.t) -> w.suite = s)
                all_workloads)
      | names -> List.map (fun n -> or_die (find_workload n)) names
    in
    if ws = [] then
      or_die
        (Error
           (match suite with
           | Some s -> Printf.sprintf "no workloads in suite %s" s
           | None -> "no workloads selected"));
    let code =
      with_obs ~stats ~trace @@ fun () ->
      let config = { Pipeline.Cache.profile; threads } in
      let cache_limits =
        Pipeline.Cache.limits ?max_mb:cache_max_mb ?ttl_s:cache_ttl ()
      in
      let job_list =
        List.map
          (Pipeline.workload_job ?cache_dir:cache ~cache_limits ~config)
          ws
      in
      let rep =
        Pipeline.run_batch ~jobs ~timeout_s:timeout ~retries job_list
      in
      (* With --json, the human table moves to stderr so stdout stays
         machine-parseable (notably `--json -`, which streams the JSON
         report itself to stdout). *)
      (match json with
      | None -> print_string (Pipeline.render rep)
      | Some _ -> prerr_string (Pipeline.render rep));
      (match json with
      | None -> ()
      | Some "-" ->
          print_string (Obs.Json.pretty (Pipeline.report_to_json ?suite rep));
          print_newline ()
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc
                (Obs.Json.pretty (Pipeline.report_to_json ?suite rep));
              Out_channel.output_char oc '\n');
          Printf.eprintf "wrote %s\n" path);
      if rep.Pipeline.b_failed + rep.Pipeline.b_timeout > 0 then 1 else 0
    in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ names_arg $ suite_arg $ jobs_arg $ cache_arg
      $ cache_max_mb_arg $ cache_ttl_arg $ timeout_arg $ retries_arg
      $ json_arg $ profile_config_term $ threads_arg $ stats_arg $ trace_arg)

(* races *)
let races_cmd =
  let doc = "Profile a multi-threaded target and report potential data races." in
  let seeds_arg =
    Arg.(value & opt int 5 & info [ "schedules" ] ~docv:"N"
           ~doc:"Number of thread schedules to try.")
  in
  let run name size seeds trace =
    let w = or_die (find_workload name) in
    let prog = Workloads.Registry.program ?size w in
    with_obs ~stats:None ~trace @@ fun () ->
    let found = Hashtbl.create 8 in
    for seed = 1 to seeds do
      let race, _ = Profiler.Race.run ~seed prog in
      List.iter
        (fun race -> Hashtbl.replace found race ())
        (Profiler.Race.races race)
    done;
    if Hashtbl.length found = 0 then
      print_endline "no potential races observed on these schedules"
    else
      Hashtbl.iter
        (fun (var, l1, l2) () ->
          Printf.printf "potential race on %s between lines %d and %d\n" var l1 l2)
        found
  in
  Cmd.v (Cmd.info "races" ~doc)
    Term.(const run $ workload_arg $ size_arg $ seeds_arg $ trace_arg)

(* serve *)
let serve_cmd =
  let doc =
    "Run the resident profiling daemon: a hand-rolled HTTP/1.1 server that \
     accepts MIL programs over POST /profile, profiles them on a pool of \
     persistent worker domains, and answers repeat requests from an \
     in-process LRU in front of the on-disk cache (--cache DIR). \
     Every response carries an X-Trace-Id; GET /trace?id= replays one \
     request's span tree as Chrome Trace JSON from the flight recorder \
     (--flight N records, slow requests retained past --slow-threshold), \
     dumped via GET /requests and --flight-dump FILE. GET /metrics dumps \
     the observability registry as JSON (?format=prometheus for the \
     Prometheus text format); a full queue answers 429 with Retry-After; \
     a request overrunning --deadline is cancelled cooperatively and \
     answers 504. Stop with POST /shutdown, SIGINT or SIGTERM."
  in
  let port_arg =
    Arg.(value & opt int 8123 & info [ "port" ] ~docv:"P"
           ~doc:"TCP port to listen on (127.0.0.1 only; 0 = ephemeral).")
  in
  let jobs_arg =
    Arg.(value & opt int 4 & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains handling requests concurrently.")
  in
  let queue_arg =
    Arg.(value & opt int 32 & info [ "queue" ] ~docv:"N"
           ~doc:"Pending connections admitted before load-shedding with 429.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Per-request processing deadline; an overrunning profile is \
                 cancelled and answered 504.")
  in
  let cache_arg =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"On-disk result cache shared with $(b,discopop batch) \
                 (same content-addressed keys).")
  in
  let cache_max_mb_arg =
    Arg.(value & opt (some int) None & info [ "cache-max-mb" ] ~docv:"MB"
           ~doc:"Cap the on-disk cache at MB megabytes (LRU-by-mtime sweep \
                 after each publish; loads refresh recency).")
  in
  let cache_ttl_arg =
    Arg.(value & opt (some float) None & info [ "cache-ttl" ] ~docv:"SEC"
           ~doc:"Evict on-disk cache entries idle for SEC seconds.")
  in
  let mem_arg =
    Arg.(value & opt int 128 & info [ "mem-cache" ] ~docv:"N"
           ~doc:"In-process LRU capacity in entries (0 disables the memory \
                 tier).")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"T"
           ~doc:"Default thread count assumed by the local-speedup metric \
                 (overridable per request with ?threads=).")
  in
  let flight_arg =
    Arg.(value & opt int 512 & info [ "flight" ] ~docv:"N"
           ~doc:"Flight-recorder window: completed request records retained \
                 for GET /trace and GET /requests.")
  in
  let slow_arg =
    Arg.(value & opt float 0.25 & info [ "slow-threshold" ] ~docv:"SEC"
           ~doc:"Service time above which a request is also retained in the \
                 slow-request ring (which fast traffic cannot evict).")
  in
  let flight_dump_arg =
    Arg.(value & opt (some string) None & info [ "flight-dump" ] ~docv:"FILE"
           ~doc:"Write both flight-recorder rings as JSON to $(docv) on \
                 shutdown.")
  in
  let run port jobs queue deadline cache cache_max_mb cache_ttl mem profile
      threads flight slow_threshold flight_dump =
    (* Serve rejects a default profile config it would answer 400 to. *)
    try
      Serve.run
        { Serve.default_config with
          Serve.port; jobs; queue_capacity = queue; deadline_s = deadline;
          cache_dir = cache;
          cache_limits =
            Pipeline.Cache.limits ?max_mb:cache_max_mb ?ttl_s:cache_ttl ();
          mem_capacity = mem;
          profile = { Pipeline.Cache.profile; threads };
          flight_capacity = flight; slow_threshold_s = slow_threshold;
          flight_dump }
    with Invalid_argument msg -> or_die (Error msg)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ port_arg $ jobs_arg $ queue_arg $ deadline_arg $ cache_arg
      $ cache_max_mb_arg $ cache_ttl_arg $ mem_arg $ profile_config_term
      $ threads_arg $ flight_arg $ slow_arg $ flight_dump_arg)

let () =
  let doc = "DiscoPoP: discovery of potential parallelism in sequential programs" in
  let info = Cmd.info "discopop" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; source_cmd; profile_cmd; read_deps_cmd; pet_cmd; cus_cmd;
            discover_cmd; explain_cmd; optimize_cmd; parallelize_cmd;
            batch_cmd; serve_cmd; trace_check_cmd; check_bench_cmd;
            races_cmd ]))
