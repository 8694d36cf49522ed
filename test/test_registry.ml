(* Whole-registry oracle for the evaluators.

   [golden/registry.digest] holds, for each of the 71 registry programs at
   its default size, MD5s of:
   - the uninstrumented interpreter run: result, stats, dynamic op count and
     final globals;
   - the suggestion summary of `discopop discover` (perfect shadow, skip on);
   - the dependence-record keys (D-line fields 2-8: sink line and thread,
     type, source line and thread, variable, carrier) of the perfect+skip
     profile and of a 4096-slot signature profile.

   Keys, not whole D-lines: instance counts and first-witness columns depend
   on which freed address a later allocation reuses, which is allocator
   policy rather than program meaning. Signature keys depend on that policy
   too, through which addresses share a slot: those of IS, kmeans-par and
   rgbyuv-par change with the order in which a scope's locals are freed,
   their perfect-shadow keys do not.

   Regenerate (only for a deliberate semantic change) with
     REGISTRY_DIGEST_OUT=test/golden/registry.digest \
       dune exec test/test_main.exe -- test registry *)

module R = Workloads.Registry
module S = Discovery.Suggestion

let registry =
  Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Starbench.all
  @ Workloads.Bots.all @ Workloads.Apps.all @ Workloads.Splash2x.all
  @ Workloads.Numerics.all @ Workloads.Parsec.all

let md5 s = Digest.to_hex (Digest.string s)

let interp_digest prog =
  let r = Mil.Interp.run ~instrument:false prog in
  let s = r.Mil.Interp.r_stats in
  let b = Buffer.create 256 in
  Printf.bprintf b "%d %d %d %d %d %d\n" r.Mil.Interp.result s.Mil.Interp.reads
    s.writes s.loop_iterations s.calls r.dynamic_ops;
  List.iter
    (fun (n, a) ->
      Printf.bprintf b "%s:%s\n" n
        (String.concat "," (Array.to_list (Array.map string_of_int a))))
    r.final_globals;
  md5 (Buffer.contents b)

let keys_digest deps =
  Profiler.Depfile.render deps
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | "D" :: rest when List.length rest >= 7 ->
             Some (String.concat " " (List.filteri (fun i _ -> i < 7) rest))
         | _ -> None)
  |> List.sort compare |> String.concat "\n" |> md5

let digest_line (w : R.t) =
  let prog = R.program w in
  let report = S.analyze prog in
  let summary = S.summary_to_string ~name:w.name (S.summarize report) in
  let sig_deps =
    (Profiler.Serial.profile ~shadow:(Profiler.Engine.Signature 4096) prog)
      .Profiler.Serial.deps
  in
  Printf.sprintf "%s %s %s %s %s" w.name (interp_digest prog) (md5 summary)
    (keys_digest report.S.profile.Profiler.Serial.deps)
    (keys_digest sig_deps)

(* Compare one line per registry program against a golden file, writing the
   lines to [$env] first when it is set. *)
let check_golden ~env ~file ~what got =
  (match Sys.getenv_opt env with
  | Some path when path <> "" ->
      let oc = open_out_bin path in
      List.iter (fun l -> output_string oc (l ^ "\n")) got;
      close_out oc
  | _ -> ());
  let want =
    Test_hotpath.read_file (Filename.concat Test_hotpath.golden_dir file)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per registry program" (List.length want)
    (List.length got);
  List.iter2
    (fun w g ->
      let name = List.hd (String.split_on_char ' ' w) in
      Alcotest.(check string) (what ^ ": " ^ name) w g)
    want got

let test_registry_digest () =
  check_golden ~env:"REGISTRY_DIGEST_OUT" ~file:"registry.digest"
    ~what:"registry digest"
    (List.map digest_line registry)

(* [golden/pet.golden] pins the Program Execution Tree: per registry program,
   the MD5 of [Pet.to_string] from the serial profiler and from the parallel
   profiler at two workers, both perfect shadow with skip on. Unlike the
   digest above it covers node order, instance merging, per-node instruction
   totals, line spans and [dep_count]. The two columns are equal: an address
   never changes worker, so the parallel profiler's output is the serial
   one's.

   The same runs also check that the parallel report (the text `discopop
   profile` prints, lines sorted) equals the serial one, and a second pair
   checks report and PET at four workers with skip off.

   Regenerate (only for a deliberate change to the tree) with
     PET_GOLDEN_OUT=test/golden/pet.golden \
       dune exec test/test_main.exe -- test registry *)
let check_parallel_equals_serial ~what (w : R.t) (serial : Profiler.Serial.result)
    (parallel : Profiler.Serial.result) =
  let report r =
    Profiler.Serial.report ~threads:w.parallel_target r
    |> String.split_on_char '\n' |> List.sort compare
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: report, %s" w.name what)
    (report serial) (report parallel);
  Alcotest.(check string)
    (Printf.sprintf "%s: PET, %s" w.name what)
    (Profiler.Pet.to_string serial.pet)
    (Profiler.Pet.to_string parallel.pet)

let pet_line (w : R.t) =
  let prog = R.program w in
  let serial ~skip =
    Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect ~skip prog
  in
  let parallel ~workers ~skip =
    Profiler.Parallel.profile ~workers ~perfect:true ~skip prog
  in
  let s_skip = serial ~skip:true and p_skip = parallel ~workers:2 ~skip:true in
  check_parallel_equals_serial ~what:"2 workers, skip on" w s_skip p_skip;
  check_parallel_equals_serial ~what:"4 workers, skip off" w
    (serial ~skip:false)
    (parallel ~workers:4 ~skip:false);
  Printf.sprintf "%s %s %s" w.name
    (md5 (Profiler.Pet.to_string s_skip.pet))
    (md5 (Profiler.Pet.to_string p_skip.pet))

let test_pet_golden () =
  check_golden ~env:"PET_GOLDEN_OUT" ~file:"pet.golden" ~what:"PET"
    (List.map pet_line registry)

(* [golden/engine.golden] pins the engine's counters, which the dependence
   digests above do not cover: per registry program, for [Serial.profile] at
   perfect shadow with skip on and at a 4096-slot signature,
   - the eight skip counters of Table 2.7 / Fig 2.13;
   - accesses processed, pre-merge occurrences and distinct records;
   and for the signature run its occupied read and write slots and
   takeovers, read back from the [engine.shadow.*] gauges.

   Regenerate (only for a deliberate change to the engine) with
     ENGINE_GOLDEN_OUT=test/golden/engine.golden \
       dune exec test/test_main.exe -- test registry *)
let engine_counters (r : Profiler.Serial.result) =
  let s = r.Profiler.Serial.skip_stats in
  let deps = r.Profiler.Serial.deps in
  Profiler.Engine.(
    Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d" s.reads_total
      s.writes_total s.reads_skipped s.writes_skipped s.skipped_raw
      s.skipped_war s.skipped_waw s.shadow_update_elided)
    r.Profiler.Serial.accesses
    (Profiler.Dep.Set_.occurrences deps)
    (Profiler.Dep.Set_.cardinal deps)

let engine_line (w : R.t) =
  let prog = R.program w in
  let perfect =
    Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect ~skip:true prog
  in
  let gauge k =
    int_of_float (Obs.Gauge.value (Obs.gauge ("engine.shadow." ^ k)))
  in
  Obs.reset ();
  Obs.enable ();
  let sig_, occupancy =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let r =
          Profiler.Serial.profile ~shadow:(Profiler.Engine.Signature 4096) prog
        in
        ( r,
          Printf.sprintf "%d %d %d" (gauge "occupied_reads")
            (gauge "occupied_writes") (gauge "takeovers") ))
  in
  Printf.sprintf "%s perfect+skip %s | sig4096 %s | %s" w.name
    (engine_counters perfect) (engine_counters sig_) occupancy

let test_engine_golden () =
  check_golden ~env:"ENGINE_GOLDEN_OUT" ~file:"engine.golden"
    ~what:"engine counters"
    (List.map engine_line registry)

(* [golden/interleave.golden] pins the fiber scheduler's interleavings, the
   part of the interpreter that the goldens above see only through the
   profiler. For every registry program with a [Par] statement, at its
   default size, and for the transformed output of the transform-measure
   programs ([Parallelize.apply_first ~chunks:2] after a 2-thread analysis)
   at reduced sizes, it holds per seed the MD5 of
   - the instrumented event stream, in delivery order: every region event
     and every access with all its fields (thread, time, address, op id,
     loop-stack id, locked flag, and the variable by name, as symbol ids
     depend on what the process interned before);
   - the same stream under [scramble_unlocked];
   - the uninstrumented run: result, stats, final globals and prints.

   Regenerate (only for a deliberate change to scheduling) with
     INTERLEAVE_GOLDEN_OUT=test/golden/interleave.golden \
       dune exec test/test_main.exe -- test registry *)
let interleave_seeds = [ 42; 1009; 77777 ]

(* A running MD5 over the stream, written as binary ints and short
   strings: each 64 KiB is folded into the digest so far, so a long stream
   never sits in memory. *)
type stream_digest = { buf : Buffer.t; mutable h : string }

let sd_create () = { buf = Buffer.create 65600; h = "" }

let sd_fold d =
  d.h <- Digest.string (d.h ^ Buffer.contents d.buf);
  Buffer.clear d.buf

let sd_int d n = Buffer.add_int64_le d.buf (Int64.of_int n)

let sd_str d s =
  sd_int d (String.length s);
  Buffer.add_string d.buf s

let sd_tag d c =
  Buffer.add_char d.buf c;
  if Buffer.length d.buf >= 65536 then sd_fold d

let sd_hex d =
  sd_fold d;
  Digest.to_hex d.h

let sd_region d (r : Trace.Event.region) =
  let open Trace.Event in
  let ints = List.iter (sd_int d) in
  match r with
  | Loop_entry { line; inst } -> sd_tag d 'e'; ints [ line; inst ]
  | Loop_iter { line; inst; iter } -> sd_tag d 'i'; ints [ line; inst; iter ]
  | Loop_exit { line; inst; iterations } ->
      sd_tag d 'x'; ints [ line; inst; iterations ]
  | Func_entry { name; line; call_line } ->
      sd_tag d 'f'; sd_str d name; ints [ line; call_line ]
  | Func_exit { name; line } -> sd_tag d 'r'; sd_str d name; sd_int d line
  | Dealloc { addrs } ->
      sd_tag d 'd';
      sd_int d (List.length addrs);
      List.iter (fun (b, n, v) -> ints [ b; n ]; sd_str d v) addrs
  | Thread_start { thread } -> sd_tag d 's'; sd_int d thread
  | Thread_end { thread } -> sd_tag d 't'; sd_int d thread

let stream_md5 ~seed ~scramble_unlocked prog =
  let d = sd_create () in
  ignore
    (Mil.Interp.run ~seed ~scramble_unlocked ~emit:(sd_region d)
       ~on_access:(fun ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
           ~locked ->
         sd_tag d (match kind with Trace.Event.Read -> 'R' | Write -> 'W');
         sd_str d (Trace.Intern.Sym.name var);
         List.iter (sd_int d)
           [ addr; line; thread; time; op; lstack; Bool.to_int locked ])
       prog);
  sd_hex d

let observation_md5 ~seed prog =
  let d = sd_create () in
  let r =
    Mil.Interp.run ~seed ~instrument:false
      ~on_print:(fun vs -> sd_tag d 'p'; sd_int d (List.length vs);
        List.iter (sd_int d) vs)
      prog
  in
  let s = r.Mil.Interp.r_stats in
  sd_tag d 'o';
  List.iter (sd_int d)
    [ r.Mil.Interp.result; s.Mil.Interp.reads; s.writes; s.loop_iterations;
      s.calls; s.statements; r.dynamic_ops ];
  List.iter
    (fun (n, a) ->
      sd_tag d 'g'; sd_str d n; sd_int d (Array.length a);
      Array.iter (sd_int d) a)
    r.final_globals;
  sd_hex d

let interleave_line name prog =
  let per_seed seed =
    Printf.sprintf "%d %s %s %s" seed
      (stream_md5 ~seed ~scramble_unlocked:false prog)
      (stream_md5 ~seed ~scramble_unlocked:true prog)
      (observation_md5 ~seed prog)
  in
  name ^ " " ^ String.concat " | " (List.map per_seed interleave_seeds)

let interleave_lines () =
  let threaded =
    List.filter_map
      (fun (w : R.t) ->
        let prog = R.program w in
        if Mil.Rewrite.has_par prog then Some (interleave_line w.name prog)
        else None)
      registry
  in
  let transformed =
    List.map
      (fun ((name, size) as case) ->
        interleave_line
          (Printf.sprintf "%s@%d/par" name size)
          (Helpers.transform_case case).Transform.Parallelize.transformed)
      Helpers.transform_cases
  in
  threaded @ transformed

let test_interleave_golden () =
  check_golden ~env:"INTERLEAVE_GOLDEN_OUT" ~file:"interleave.golden"
    ~what:"interleavings" (interleave_lines ())

(* [golden/validate.golden] pins [Validate.differential]: for every registry
   program at its default size whose first transformable suggestion
   ([Parallelize.apply_first ~chunks:2] after a 2-thread analysis) applies,
   [verdict_to_string] at the default seeds and at seed 42 alone, its lines
   joined by " / ".

   Regenerate (only for a deliberate change to validation) with
     VALIDATE_GOLDEN_OUT=test/golden/validate.golden \
       dune exec test/test_main.exe -- test registry *)
let validate_line (w : R.t) =
  let report = S.analyze ~threads:2 (R.program w) in
  match Transform.Parallelize.apply_first ~chunks:2 report with
  | Error _ -> None
  | Ok (t, _) ->
      let verdict seeds =
        Transform.Validate.(
          verdict_to_string
            (differential ?seeds ~original:t.original
               ~transformed:t.transformed ()))
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map String.trim |> String.concat " / "
      in
      Some
        (Printf.sprintf "%s %s || %s" w.name (verdict None)
           (verdict (Some [ 42 ])))

let test_validate_golden () =
  check_golden ~env:"VALIDATE_GOLDEN_OUT" ~file:"validate.golden"
    ~what:"verdict" (List.filter_map validate_line registry)

let tests =
  [ Alcotest.test_case "registry digest (interp, summary, dep keys)" `Slow
      test_registry_digest;
    Alcotest.test_case "PET golden (serial, parallel)" `Slow test_pet_golden;
    Alcotest.test_case "engine counters golden (skip, occupancy)" `Slow
      test_engine_golden;
    Alcotest.test_case "interleave golden (streams, scramble, observation)"
      `Slow test_interleave_golden;
    Alcotest.test_case "validate golden (verdicts)" `Slow test_validate_golden ]
