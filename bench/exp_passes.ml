(* Economics of the Mil.Pass cleanup pipeline: executed-event reduction and
   profile wall-time across the whole workload registry.

   Every executed MIL access event is an event Algorithm 2 has to consume
   (the events/sec currency of exp_hotpath), so fewer executed events is
   directly faster profiling. Two gated facts per run, regressed by
   `discopop check-bench` against bench/baseline_passes.json:

   - [passes.geomean_event_ratio]: geometric mean over the registry of
     (optimized access events / seed access events) — the headline claim is
     that the default pipeline removes >=10% of executed events;
   - [passes.diff_workloads]: number of workloads whose optimized program
     is NOT observation-preserving (result/finals/prints differ under
     Transform.Validate.diff_observations) — must be exactly 0. A workload
     a pass cannot prove safe on is refused (pass.<name>.refused), which
     shows up as ratio 1.0 here, never as a diff.

   PASSES_WORKLOADS=name,name,... restricts the sweep (CI smoke);
   PASSES_PROFILE=0 skips the wall-time sample. *)

module R = Workloads.Registry

(* Wall-time sample: profiling the full registry twice would dominate CI;
   these five stand in for the shapes that matter (dense loops, recursion,
   stencils). *)
let profile_sample = [ "histogram"; "matmul"; "prefix_sum"; "fib"; "jacobi" ]

let sample () =
  Util.env_list "PASSES_WORKLOADS"
    ~default:(List.map (fun (w : R.t) -> w.name) Workloads.Catalog.all)
    ~find:Workloads.Catalog.find
    ~unknown:(Printf.sprintf "  (passes: unknown workload %s, skipped)")

let access_events prog =
  let r = Mil.Interp.run ~instrument:false prog in
  r.r_stats.reads + r.r_stats.writes

let run () =
  Util.header "Mil.Pass pipeline: executed-event reduction, 0 observation diffs";
  let g name v = Obs.Gauge.set (Obs.gauge name) v in
  let do_profile = Sys.getenv_opt "PASSES_PROFILE" <> Some "0" in
  let diffs = ref 0 and refused = ref 0 in
  let ratios = ref [] in
  let rows =
    List.map
      (fun (w : R.t) ->
        let seed = R.program w in
        let before = access_events seed in
        let report =
          match Mil.Pass.run seed with
          | Ok r -> r
          | Error e -> failwith e
        in
        let opt = report.program in
        let after = access_events opt in
        let ratio = float_of_int after /. float_of_int (max 1 before) in
        ratios := ratio :: !ratios;
        let d =
          Transform.Validate.diff_observations
            (Transform.Validate.observe seed)
            (Transform.Validate.observe opt)
        in
        if d <> [] then begin
          incr diffs;
          Printf.printf "  !! %s observation diffs: %s\n" w.name
            (String.concat "; " d)
        end;
        if not (Mil.Pass.sequential_program seed) then incr refused;
        g (Printf.sprintf "passes.%s.event_ratio" w.name) ratio;
        let speedup =
          if do_profile && List.mem w.name profile_sample then begin
            let t p =
              Util.med_time (fun () ->
                  Profiler.Serial.profile
                    ~shadow:(Profiler.Engine.Signature 100_000) p)
            in
            let s = t seed /. t opt in
            g (Printf.sprintf "passes.%s.profile_speedup" w.name) s;
            Printf.sprintf "%.2f" s
          end
          else "-"
        in
        [ w.name; string_of_int before; string_of_int after;
          Printf.sprintf "%.3f" ratio; string_of_int report.changes;
          string_of_int report.rounds; speedup ])
      (sample ())
  in
  let geomean =
    let l = !ratios in
    exp (List.fold_left (fun a r -> a +. log r) 0. l
        /. float_of_int (max 1 (List.length l)))
  in
  g "passes.geomean_event_ratio" geomean;
  g "passes.diff_workloads" (float_of_int !diffs);
  g "passes.refused_workloads" (float_of_int !refused);
  Util.table
    ~columns:
      [ "program"; "events"; "optimized"; "ratio"; "rewrites"; "rounds";
        "prof speedup" ]
    rows;
  Printf.printf
    "geomean event ratio %.3f over %d workloads (%d with sync constructs \
     restricted to count-neutral passes), %d observation diff(s)\n"
    geomean (List.length !ratios) !refused !diffs
