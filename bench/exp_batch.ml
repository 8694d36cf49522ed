(* Batch driver experiment: the textbook suite through `discopop batch`
   twice against a scratch cache directory — the first pass is fully cold
   (every job profiles and populates the cache), the second fully warm
   (every job loads its Depfile + suggestion summary and skips phase 1).
   The headline gauge is the warm-over-cold wall-clock speedup; the summary
   also proves warm results byte-identical to cold ones. *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let summaries (r : Pipeline.report) =
  List.filter_map
    (fun (j : Pipeline.job_result) ->
      match j.Pipeline.r_status with
      | Pipeline.Ok_ ok -> Some (j.Pipeline.r_name, snd ok.Pipeline.jr_entry)
      | _ -> None)
    r.Pipeline.b_results

let run () =
  Util.header "Batch driver: cold vs warm cache over the textbook suite";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "discopop-bench-batch.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let config = Pipeline.Cache.default_config in
  let jobs () =
    List.map
      (Pipeline.workload_job ~cache_dir:dir ~config)
      Workloads.Textbook.all
  in
  let cold = Pipeline.run_batch ~jobs:4 (jobs ()) in
  let warm = Pipeline.run_batch ~jobs:4 (jobs ()) in
  rm_rf dir;
  print_string (Pipeline.render warm);
  let identical =
    summaries cold = summaries warm
    && warm.Pipeline.b_cache_hits = List.length Workloads.Textbook.all
  in
  let speedup =
    if warm.Pipeline.b_wall_s > 0.0 then
      cold.Pipeline.b_wall_s /. warm.Pipeline.b_wall_s
    else 0.0
  in
  Obs.Gauge.set (Obs.gauge "batch.cold_wall_s") cold.Pipeline.b_wall_s;
  Obs.Gauge.set (Obs.gauge "batch.warm_wall_s") warm.Pipeline.b_wall_s;
  Obs.Gauge.set (Obs.gauge "batch.cache_hit_speedup") speedup;
  Obs.Gauge.set_int
    (Obs.gauge "batch.warm_identical")
    (if identical then 1 else 0);
  Printf.printf
    "cold %.2fs -> warm %.2fs: %.1fx from cache hits; warm results %s\n"
    cold.Pipeline.b_wall_s warm.Pipeline.b_wall_s speedup
    (if identical then "byte-identical to cold" else "DIFFER from cold (bug)")
