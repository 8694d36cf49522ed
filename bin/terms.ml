(* The command-line terms the discopop commands share: each flag is
   declared, parsed and range-checked here once. *)

open Cmdliner

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* Write FILE with [write], then say so on stderr. A file that cannot be
   written exits 1, naming [what] was written (default "output"). *)
let write_out ?(what = "output") path write =
  (try write path
   with Sys_error msg ->
     Printf.eprintf "cannot write %s file: %s\n" what msg;
     exit 1);
  Printf.eprintf "wrote %s\n" path

let write_text path text =
  write_out path (fun p ->
      Out_channel.with_open_text p (fun oc ->
          Out_channel.output_string oc text))

let write_json path json = write_text path (Obs.Json.pretty json ^ "\n")

(* Integers with a lower bound. An out-of-range value is a usage error
   (exit 124), worded like cmdliner's own "expected an integer". *)
let int_at_least lo expected =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv ~docv:"INT" (parse, Arg.conv_printer Arg.int)

let positive = int_at_least 1 "a positive integer"
let non_negative = int_at_least 0 "a non-negative integer"

let threads ~doc =
  Arg.(value & opt positive 4 & info [ "threads" ] ~docv:"T" ~doc)

let output ~doc =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let file_pos docv = Arg.(required & pos 0 (some file) None & info [] ~docv)

let find_workload name =
  match Workloads.Catalog.find name with
  | Some w -> w
  | None ->
      or_die
        (Error
           (Printf.sprintf "unknown workload %s (try `discopop list`)" name))

(* A workload: its registry entry, the size it runs at (--size, or its
   default) and its program. *)
type workload = {
  w : Workloads.Registry.t;
  size : int;
  prog : Mil.Ast.program;
}

(* [on_workload cmd] adds WORKLOAD and --size to the command [cmd] and runs
   it on that workload. The two are parsed before [cmd]'s flags and the name
   is looked up after them, so an unknown name (exit 1) is reported after
   any bad flag. *)
let on_workload cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let size_arg =
    Arg.(value & opt (some positive) None & info [ "size" ] ~docv:"N"
           ~doc:"Override the workload's input size.")
  in
  let run name size cmd =
    let w = find_workload name in
    cmd
      { w;
        size = Option.value size ~default:w.default_size;
        prog = Workloads.Registry.program ?size w }
  in
  Term.(const run $ name_arg $ size_arg $ cmd)

(* --signature/--skip/--workers as one checked profiler config: a bad value
   exits 1 with the message serve answers 400 with. *)
let profile_config =
  let signature =
    Arg.(value & opt (some int) None & info [ "signature" ] ~docv:"SLOTS"
           ~doc:"Use a signature shadow memory with SLOTS slots instead of \
                 the exact shadow memory.")
  in
  let skip =
    Arg.(value & flag & info [ "skip" ]
           ~doc:"Enable skipping of repeatedly executed memory operations \
                 (§2.4).")
  in
  let workers =
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"W"
           ~doc:"Profile with the lock-free parallel profiler using W worker \
                 domains (0 = serial).")
  in
  let make signature skip workers =
    let shadow =
      match signature with
      | Some slots -> Profiler.Engine.Signature slots
      | None -> Profiler.Engine.Perfect
    in
    or_die (Profiler.Profile.check { shadow; skip; workers })
  in
  Term.(const make $ signature $ skip $ workers)

(* --cache/--cache-max-mb/--cache-ttl: the on-disk result cache directory
   and its eviction limits. *)
let cache =
  let dir =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"Content-addressed on-disk result cache directory (created \
                 if missing), shared by $(b,discopop batch) and \
                 $(b,discopop serve). Key = hash of the MIL program + \
                 profiler config; each entry is one $(i,KEY).entry file \
                 holding the serialized suggestion summary and the \
                 Depfile-v2 dependences behind a length header (not \
                 readable by $(b,discopop read-deps)). Format-v2 \
                 .deps/.sugg pairs are ignored.")
  in
  let max_mb =
    Arg.(value & opt (some non_negative) None
         & info [ "cache-max-mb" ] ~docv:"MB"
           ~doc:"Cap the cache directory at MB megabytes: after each \
                 publish, least-recently-used entries (oldest mtime; loads \
                 refresh it) are evicted until the directory fits. The \
                 just-published entry is never evicted.")
  in
  let ttl =
    Arg.(value & opt (some float) None & info [ "cache-ttl" ] ~docv:"SEC"
           ~doc:"Evict cache entries not written or read for SEC seconds, \
                 swept after each publish.")
  in
  let make dir max_mb ttl_s = (dir, Pipeline.Cache.limits ?max_mb ?ttl_s ()) in
  Term.(const make $ dir $ max_mb $ ttl)

(* --stats and --trace: where to write the run's observability snapshot and
   its timeline; [with_obs] runs a command with them enabled. *)
type obs = { stats : string option; trace : string option }

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a per-domain event timeline (phase spans, worker chunk \
               consumption, queue depths; see README \"Tracing & explain\") \
               to FILE as Chrome Trace Event JSON, loadable in \
               chrome://tracing or Perfetto.")

let obs =
  let stats =
    Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
           ~doc:"Write machine-readable run statistics (phase timings, \
                 counters, gauges; see README \"Observability & CI\") to \
                 FILE as JSON.")
  in
  Term.(const (fun stats trace -> { stats; trace }) $ stats $ trace_arg)

let trace_only = Term.(const (fun trace -> { stats = None; trace }) $ trace_arg)

let with_obs { stats; trace } f =
  if stats <> None then Obs.enable ();
  if trace <> None then begin
    Obs.Trace.enable ();
    Obs.Trace.set_track "main"
  end;
  let r = f () in
  (* Allocation counters ride along in every --stats export. *)
  Obs.publish_gc ();
  Option.iter (fun p -> write_out ~what:"stats" p Obs.write_json) stats;
  Option.iter (fun p -> write_out ~what:"trace" p Obs.Trace.write) trace;
  r
