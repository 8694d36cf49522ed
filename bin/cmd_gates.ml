(* The CI gates: validating a --trace timeline, and comparing a BENCH_*.json
   summary against a checked-in baseline. *)

open Cmdliner
open Terms

let read_file path = In_channel.with_open_bin path In_channel.input_all

let trace_check_cmd =
  let doc =
    "Validate a Chrome Trace Event file produced by --trace: parseable by \
     the bundled JSON parser, non-empty, required fields present, \
     timestamps monotone per track."
  in
  let run file =
    match Obs.Trace.check (read_file file) with
    | Ok (events, tracks) ->
        Printf.printf "trace ok: %d events, %d tracks\n" events tracks
    | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
  in
  Cmd.v (Cmd.info "trace-check" ~doc) Term.(const run $ file_pos "FILE")

module J = Obs.Json

(* Baseline numbers are kept human-readable: integers stay integral, the
   rest rounds to three significant digits (measurements carry no more). *)
let render v =
  if Float.is_integer v && Float.abs v < 1e6 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

(* A baseline in the committed layout: one metric per line, so refreshes
   diff line by line. *)
let render_baseline top =
  let field (f, v) =
    Printf.sprintf "\"%s\": %s" f
      (match J.get_float v with Some x -> render x | None -> J.to_string v)
  in
  let metric (name, spec) =
    Printf.sprintf "    \"%s\": { %s }" name
      (match spec with
      | J.Obj kvs -> String.concat ", " (List.map field kvs)
      | _ -> J.to_string spec)
  in
  let entry = function
    | "metrics", J.Obj ms ->
        Printf.sprintf "  \"metrics\": {\n%s\n  }"
          (String.concat ",\n" (List.map metric ms))
    | k, j -> Printf.sprintf "  \"%s\": %s" k (J.to_string j)
  in
  "{\n" ^ String.concat ",\n" (List.map entry top) ^ "\n}\n"

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
  let run bench_path baseline_path update =
    let die fmt = Printf.ksprintf (fun s -> or_die (Error s)) fmt in
    let parse path =
      match J.of_string (read_file path) with
      | Ok j -> j
      | Error msg -> die "%s: unparseable JSON (%s)" path msg
    in
    let bench = parse bench_path in
    let baseline = parse baseline_path in
    (* A metric's current value: the summary's gauges section first, then
       counters, then the top level (wall_s). *)
    let current name =
      let in_section s =
        Option.bind (J.member "metrics" bench) (J.member s)
        |> Fun.flip Option.bind (J.member name)
        |> Fun.flip Option.bind J.get_float
      in
      match List.find_map in_section [ "gauges"; "counters" ] with
      | Some v -> Some v
      | None -> Option.bind (J.member name bench) J.get_float
    in
    let no_metrics () = die "%s: no \"metrics\" object" baseline_path in
    let top = match baseline with J.Obj kvs -> kvs | _ -> no_metrics () in
    let entries =
      match List.assoc_opt "metrics" top with
      | Some (J.Obj kvs) -> kvs
      | _ -> no_metrics ()
    in
    (* An empty gate would pass any summary — treat it as a broken baseline,
       not a success. *)
    if entries = [] then
      die "%s: \"metrics\" is empty; refusing to pass an empty gate"
        baseline_path;
    if update then begin
      (* Refresh values in place; bands, caps, the comment and any other
         top-level keys pass through untouched so the file stays reviewable
         as a diff of numbers. *)
      let refresh (name, spec) =
        match J.member "max_abs" spec with
        | Some _ -> (false, (name, spec)) (* a policy cap, not a measurement *)
        | None -> (
            let v =
              match current name with
              | Some v -> v
              | None ->
                  die "%s: metric %S missing from %s; not updating" bench_path
                    name bench_path
            in
            let changed =
              match Option.bind (J.member "value" spec) J.get_float with
              | Some old when old <> v ->
                  Printf.printf "update %-45s %s -> %s\n" name (render old)
                    (render v);
                  true
              | Some _ -> false
              | None ->
                  die "%s: metric %S lacks numeric \"value\"" baseline_path name
            in
            match spec with
            | J.Obj kvs ->
                let value (k, j) =
                  if k = "value" then (k, J.Float (float_of_string (render v)))
                  else (k, j)
                in
                (changed, (name, J.Obj (List.map value kvs)))
            | _ -> die "%s: metric %S is not an object" baseline_path name)
      in
      let refreshed = List.map refresh entries in
      let top =
        List.map
          (fun (k, j) ->
            if k = "metrics" then (k, J.Obj (List.map snd refreshed)) else (k, j))
          top
      in
      Out_channel.with_open_bin baseline_path (fun oc ->
          Out_channel.output_string oc (render_baseline top));
      Printf.printf "%s: refreshed %d of %d metric value(s) from %s\n"
        baseline_path
        (List.length (List.filter fst refreshed))
        (List.length refreshed) bench_path
    end
    else begin
      (* Each metric's verdict: [Some true] within its band or cap, [Some
         false] outside it, [None] missing from the summary. *)
      let gate (name, spec) =
        let field f =
          match Option.bind (J.member f spec) J.get_float with
          | Some v -> v
          | None -> die "%s: metric %S lacks numeric %S" baseline_path name f
        in
        let verdict ok fmt =
          Printf.printf ("%s %-45s " ^^ fmt ^^ "\n")
            (if ok then "ok  " else "FAIL") name
        in
        match (current name, J.member "max_abs" spec) with
        | None, _ ->
            Printf.printf "FAIL %-45s missing from %s\n" name bench_path;
            None
        | Some v, Some _ ->
            (* Absolute cap: for metrics whose healthy value is ~0 (the
               allocation meters), a ratio against the baseline is
               numerically meaningless — gate on the ceiling itself. *)
            let cap = field "max_abs" in
            if v <= cap then verdict true "%g (cap %g)" v cap
            else verdict false "%g exceeds cap %g" v cap;
            Some (v <= cap)
        | Some v, None ->
            let expected = field "value" in
            let min_ratio = field "min_ratio"
            and max_ratio = field "max_ratio" in
            if expected = 0.0 then begin
              (* No meaningful ratio; require an exact zero. *)
              if v = 0.0 then verdict true "0 (= baseline)"
              else verdict false "%g vs baseline 0" v;
              Some (v = 0.0)
            end
            else
              let ratio = v /. expected in
              let ok = ratio >= min_ratio && ratio <= max_ratio in
              if ok then
                verdict true "%g (%.2fx of baseline, band %.2f-%.2f)" v ratio
                  min_ratio max_ratio
              else
                verdict false "%g (%.2fx of baseline %g, band %.2f-%.2f)" v
                  ratio expected min_ratio max_ratio;
              Some ok
      in
      let verdicts = List.map (fun e -> (fst e, gate e)) entries in
      let missing =
        List.filter_map
          (fun (n, v) -> if v = None then Some n else None)
          verdicts
      in
      let failures =
        List.length (List.filter (fun (_, v) -> v <> Some true) verdicts)
      in
      if failures > 0 then begin
        (* Missing metrics also go to stderr by name: a truncated summary
           must fail the gate as loudly as an out-of-band one. *)
        List.iter
          (fun name ->
            Printf.eprintf "check-bench: metric %S missing from %s\n" name
              bench_path)
          missing;
        Printf.printf "%d metric(s) out of tolerance (%d missing)\n" failures
          (List.length missing);
        exit 1
      end
      else
        Printf.printf "all %d metric(s) within tolerance\n"
          (List.length entries)
    end
  in
  Cmd.v (Cmd.info "check-bench" ~doc)
    Term.(const run $ file_pos "BENCH_JSON" $ baseline_arg $ update_arg)

let cmds = [ trace_check_cmd; check_bench_cmd ]
