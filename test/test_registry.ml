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
    (List.map digest_line Workloads.Catalog.all)

(* [golden/pet.golden] pins the Program Execution Tree: per registry program,
   the MD5 of [Pet.to_string] from the serial profiler and from the parallel
   profiler at two workers, both perfect shadow with skip on. Unlike the
   digest above it covers node order, instance merging, per-node instruction
   totals, line spans and per-node dependence counts. The two columns are equal: an address
   never changes worker, so the parallel profiler's output is the serial
   one's.

   The same runs also check that the parallel report (the text `discopop
   profile` prints, lines sorted) equals the serial one, and the serial run
   with skip off is checked against report and PET at one worker (the
   profile-large benchmark's configuration) and at four.

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
    (Profiler.Pet.to_string serial.pet serial.deps)
    (Profiler.Pet.to_string parallel.pet parallel.deps)

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
  let s_off = serial ~skip:false in
  check_parallel_equals_serial ~what:"1 worker, skip off" w s_off
    (parallel ~workers:1 ~skip:false);
  check_parallel_equals_serial ~what:"4 workers, skip off" w s_off
    (parallel ~workers:4 ~skip:false);
  Printf.sprintf "%s %s %s" w.name
    (md5 (Profiler.Pet.to_string s_skip.pet s_skip.deps))
    (md5 (Profiler.Pet.to_string p_skip.pet p_skip.deps))

let test_pet_golden () =
  check_golden ~env:"PET_GOLDEN_OUT" ~file:"pet.golden" ~what:"PET"
    (List.map pet_line Workloads.Catalog.all)

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
    (List.map engine_line Workloads.Catalog.all)

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
      Workloads.Catalog.all
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
   program whose first transformable suggestion applies,
   [verdict_to_string] at the default seeds and at seed 42 alone, its lines
   joined by " / ".

   Regenerate (only for a deliberate change to validation) with
     VALIDATE_GOLDEN_OUT=test/golden/validate.golden \
       dune exec test/test_main.exe -- test registry *)
let validate_line ((w : R.t), t) =
  Option.map
    (fun ((t : Transform.Parallelize.t), _) ->
      let verdict seeds =
        Transform.Validate.(
          verdict_to_string
            (differential ?seeds ~original:t.original
               ~transformed:t.transformed ()))
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map String.trim |> String.concat " / "
      in
      Printf.sprintf "%s %s || %s" w.name (verdict None)
        (verdict (Some [ 42 ])))
    t

let test_validate_golden () =
  check_golden ~env:"VALIDATE_GOLDEN_OUT" ~file:"validate.golden"
    ~what:"verdict"
    (List.filter_map validate_line (Lazy.force Helpers.first_transforms))

(* [golden/rewrite.golden] pins the programs the transform and the passes
   produce, which the verdicts above and the passes' event-ratio gate do
   not: per registry program, the MD5 of the rendered first transform ("-"
   when no suggestion applies) and of the rendered [Pass.run] output under
   the default pipeline.

   Regenerate (only for a deliberate change to a transform or a pass) with
     REWRITE_GOLDEN_OUT=test/golden/rewrite.golden \
       dune exec test/test_main.exe -- test registry *)
let rewrite_line ((w : R.t), t) =
  let transformed =
    match t with
    | Some ((t : Transform.Parallelize.t), _) ->
        md5 (Mil.Pretty.render_program t.transformed)
    | None -> "-"
  in
  let passed =
    match Mil.Pass.run (R.program w) with
    | Ok r -> md5 (Mil.Pretty.render_program r.Mil.Pass.program)
    | Error e -> "error:" ^ e
  in
  Printf.sprintf "%s %s %s" w.name transformed passed

let test_rewrite_golden () =
  check_golden ~env:"REWRITE_GOLDEN_OUT" ~file:"rewrite.golden"
    ~what:"rewrite" (List.map rewrite_line (Lazy.force Helpers.first_transforms))

(* [golden/transform.golden] pins every transform, not just the first that
   applies: per registry program (2-thread analysis, default size), one line
   per suggestion in rank order with, at 2 and at 4 chunks, the MD5 of the
   rendered transformed program followed by its plan, or the refusal reason.
   Two fixtures follow: every suggestion of [Test_transform.doacross_prog]
   (the only transformable DOACROSS) and [naive_doall] on
   [Test_transform.recurrence_prog].

   Regenerate (only for a deliberate change to a transform) with
     TRANSFORM_GOLDEN_OUT=test/golden/transform.golden \
       dune exec test/test_main.exe -- test registry *)
let transform_lines name prog =
  let module P = Transform.Parallelize in
  let report = S.analyze ~threads:2 prog in
  let at chunks s =
    match P.apply ~chunks report s with
    | Ok t ->
        md5 (Mil.Pretty.render_program t.transformed ^ P.plan_to_string t.plan)
    | Error e -> Printf.sprintf "refused %S" e
  in
  match report.suggestions with
  | [] -> [ name ^ " no suggestions" ]
  | ss ->
      List.mapi
        (fun k (s : S.t) ->
          Printf.sprintf "%s #%d region %d: c2 %s c4 %s" name (k + 1) s.region
            (at 2 s) (at 4 s))
        ss

let test_transform_golden () =
  let naive chunks =
    match
      Transform.Parallelize.naive_doall ~chunks Test_transform.recurrence_prog
        ~line:Test_transform.recurrence_line
    with
    | Ok p -> md5 (Mil.Pretty.render_program p)
    | Error e -> Printf.sprintf "refused %S" e
  in
  check_golden ~env:"TRANSFORM_GOLDEN_OUT" ~file:"transform.golden"
    ~what:"transform"
    (List.concat_map
       (fun (w : R.t) -> transform_lines w.name (R.program w))
       Workloads.Catalog.all
    @ transform_lines "fixture:doacross" Test_transform.doacross_prog
    @ [ Printf.sprintf "fixture:naive_doall c2 %s c4 %s" (naive 2) (naive 4) ])

(* [golden/static.golden] pins [Static]'s answers, which every later phase
   reads: per registry program, the MD5 of
   - every function's summary;
   - every region's kind, first and last line, global reads and writes,
     locals, reductions and the §3.2.5 index flag;
   - the reads and writes of every top-down item of every region, over the
     region's construction variables and its locals (the set MPMD uses).

   Regenerate (only for a deliberate change to the analysis) with
     STATIC_GOLDEN_OUT=test/golden/static.golden \
       dune exec test/test_main.exe -- test registry *)
let static_line (w : R.t) =
  let module St = Mil.Static in
  let st = St.analyze (R.program w) in
  let b = Buffer.create 1024 in
  let set s = String.concat "," (St.SS.elements s) in
  List.iter
    (fun (f : Mil.Ast.func) ->
      match St.summary st f.fname with
      | Some s ->
          Printf.bprintf b "F %s r=%s w=%s pr=%s pw=%s\n" f.fname
            (set s.St.sum_gread) (set s.sum_gwritten) (set s.sum_pread)
            (set s.sum_pwritten)
      | None -> Printf.bprintf b "F %s none\n" f.fname)
    st.St.program.funcs;
  Array.iter
    (fun (r : St.region) ->
      let kind =
        match r.kind with
        | St.Rfunc f -> "func " ^ f
        | Rloop { index; cond_vars } ->
            Printf.sprintf "loop %s cond=%s"
              (Option.value index ~default:"-") (set cond_vars)
        | Rbranch { arm_then } -> if arm_then then "then" else "else"
      in
      Printf.bprintf b "R %d %s %d-%d gr=%s gw=%s loc=%s red=%s ix=%b\n" r.id
        kind r.first_line r.last_line (set r.globals_read)
        (set r.globals_written) (set r.locals)
        (String.concat ","
           (List.map
              (fun (x, op) -> x ^ Mil.Ast.string_of_binop op)
              r.reductions))
        r.index_written_in_body;
      let gv =
        St.SS.union (Cunit.Top_down.construction_globals st r.id) r.locals
      in
      List.iter
        (fun (it : Cunit.Top_down.item) ->
          Printf.bprintf b "I %d r=%s w=%s\n" it.it_line (set it.it_reads)
            (set it.it_writes))
        (Cunit.Top_down.items_of_region st r.id gv))
    st.regions;
  Printf.sprintf "%s %s" w.name (md5 (Buffer.contents b))

let test_static_golden () =
  check_golden ~env:"STATIC_GOLDEN_OUT" ~file:"static.golden"
    ~what:"static" (List.map static_line Workloads.Catalog.all)

(* [golden/passes.golden] pins [Mil.Pass.run]'s default pipeline per
   registry program, which the passes' aggregate gates (event ratio, refused
   and differing workloads) do not: the fixpoint rounds, every registered
   pass's change count, and the MD5 of the rendered optimized program. Two
   fixtures follow, [Test_passes.cascade_prog] and
   [Test_passes.simplify_prog], for the [simplify] shapes no registry
   program reaches.

   Regenerate (only for a deliberate change to a pass) with
     PASSES_GOLDEN_OUT=test/golden/passes.golden \
       dune exec test/test_main.exe -- test registry *)
let passes_line name prog =
  match Mil.Pass.run prog with
  | Ok r ->
      let count pass =
        Option.value (List.assoc_opt pass r.Mil.Pass.per_pass) ~default:0
      in
      Printf.sprintf "%s rounds %d %s %s" name r.rounds
        (String.concat " "
           (List.map
              (fun pass -> Printf.sprintf "%s %d" pass (count pass))
              (Mil.Pass.names ())))
        (md5 (Mil.Pretty.render_program r.program))
  | Error e -> Printf.sprintf "%s error %s" name e

let test_passes_golden () =
  check_golden ~env:"PASSES_GOLDEN_OUT" ~file:"passes.golden"
    ~what:"passes"
    (List.map (fun (w : R.t) -> passes_line w.name (R.program w))
       Workloads.Catalog.all
    @ List.map
        (fun (p : Mil.Ast.program) -> passes_line p.pname p)
        [ Test_passes.cascade_prog; Test_passes.simplify_prog ])

(* Static ⊇ dynamic: every non-INIT record of the perfect-shadow profile
   must be one [Mil.Static.effects] allows. A RAW needs its source
   statement to write the variable and its sink to read it, a WAR the
   reverse, a WAW both to write; a declaration's bind counts as a write.
   Three rules admit what a statement's own effects do not show:
   - a [for] header reads and writes its index;
   - a function's header line writes its scalar parameters, as the call
     passes them;
   - an array parameter names what its call sites pass for it. A record
     names the variable at its source access, so one side may see it under
     a callee's parameter name; the two sides agree when both names reach
     the same array. A call site passes an array for a parameter only if
     its own [Static.effects] show the access through it, so the callee
     summaries are checked too. *)
module SS = Mil.Static.SS

type access = Read | Write

let static_covers_dynamic (w : R.t) =
  let prog = R.program w in
  let st = Mil.Static.analyze prog in
  let fx = Mil.Static.effects st in
  let at_line = Hashtbl.create 64 and header = Hashtbl.create 8 in
  List.iter
    (fun (f : Mil.Ast.func) ->
      Hashtbl.replace header f.fline f;
      Mil.Ast.fold_block
        (fun () (s : Mil.Ast.stmt) -> Hashtbl.replace at_line s.line (f, s))
        () f.body)
    prog.funcs;
  (* (callee, array parameter) -> (caller, call statement, actual) *)
  let passed = Hashtbl.create 16 in
  let note_call caller s (callee, args) =
    match Hashtbl.find_opt st.funcs callee with
    | None -> ()
    | Some (g : Mil.Ast.func) ->
        let np = List.length g.params in
        List.iteri
          (fun j q ->
            match List.nth_opt args (np + j) with
            | Some (Mil.Ast.Var a) -> Hashtbl.add passed (callee, q) (caller, s, a)
            | _ -> ())
          g.arr_params
  in
  List.iter
    (fun (f : Mil.Ast.func) ->
      Mil.Ast.fold_block
        (fun () (s : Mil.Ast.stmt) ->
          (match s.node with
          | Call_stmt (g, args) -> note_call f s (g, args)
          | _ -> ());
          List.iter
            (Mil.Ast.fold_expr
               (fun () -> function
                 | Mil.Ast.Call (g, args) -> note_call f s (g, args)
                 | _ -> ())
               ())
            (Mil.Ast.stmt_exprs s))
        () f.body)
    prog.funcs;
  let side mode (s : Mil.Ast.stmt) =
    let e = fx s in
    let own =
      match mode with
      | Read -> e.fx_reads
      | Write -> (
          match e.fx_binds with
          | Some x -> SS.add x e.fx_writes
          | None -> e.fx_writes)
    in
    match s.node with For { index; _ } -> SS.add index own | _ -> own
  in
  (* The function a line belongs to and the names its statement (or header)
     accesses in [mode]. *)
  let names_at mode line =
    match Hashtbl.find_opt at_line line with
    | Some (f, s) -> Some (f, side mode s)
    | None -> (
        match Hashtbl.find_opt header line with
        | Some f ->
            Some (f, if mode = Write then SS.of_list f.params else SS.empty)
        | None -> None)
  in
  (* Every name [x] in [f] may denote, through the call sites that pass an
     array for it. *)
  let rec aliases mode seen ((f : Mil.Ast.func), x) =
    if SS.mem (f.fname ^ "." ^ x) seen || not (List.mem x f.arr_params) then
      SS.add x seen
    else
      List.fold_left
        (fun seen (caller, s, a) ->
          if SS.mem a (side mode s) then aliases mode seen (caller, a) else seen)
        (SS.add (f.fname ^ "." ^ x) (SS.add x seen))
        (Hashtbl.find_all passed (f.fname, x))
  in
  let source = lazy (String.split_on_char '\n' (Mil.Pretty.render_program prog)) in
  let source_line line =
    List.find_map
      (fun l ->
        match Scanf.sscanf_opt l " %d %s@\n" (fun n text -> (n, text)) with
        | Some (n, text) when n = line ->
            Some (Printf.sprintf "line %d: %s" n text)
        | _ -> None)
      (Lazy.force source)
    |> Option.value ~default:(Printf.sprintf "line %d: (no statement)" line)
  in
  let profile = Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect prog in
  List.iter
    (fun ((d : Profiler.Dep.t), _) ->
      let modes =
        match d.dtype with
        | Raw -> Some (Write, Read)
        | War -> Some (Read, Write)
        | Waw -> Some (Write, Write)
        | Init -> None
      in
      Option.iter
        (fun (src_mode, sink_mode) ->
          let admitted =
            match
              (names_at src_mode d.src_line, names_at sink_mode d.sink_line)
            with
            | Some (fs, src_names), Some (fk, sink_names)
              when SS.mem d.var src_names ->
                let reach = aliases src_mode SS.empty (fs, d.var) in
                SS.exists
                  (fun y ->
                    not (SS.disjoint reach (aliases sink_mode SS.empty (fk, y))))
                  sink_names
            | _ -> false
          in
          if not admitted then
            Alcotest.failf
              "%s: %s not admitted by Static.effects; source: %s; sink: %s"
              w.name (Profiler.Dep.to_string d) (source_line d.src_line)
              (source_line d.sink_line))
        modes)
    (Profiler.Dep.Set_.to_list profile.deps)

let test_static_covers_dynamic () =
  List.iter static_covers_dynamic Workloads.Catalog.all

let tests =
  [ Alcotest.test_case "registry digest (interp, summary, dep keys)" `Slow
      test_registry_digest;
    Alcotest.test_case "PET golden (serial, parallel)" `Slow test_pet_golden;
    Alcotest.test_case "engine counters golden (skip, occupancy)" `Slow
      test_engine_golden;
    Alcotest.test_case "interleave golden (streams, scramble, observation)"
      `Slow test_interleave_golden;
    Alcotest.test_case "validate golden (verdicts)" `Slow test_validate_golden;
    Alcotest.test_case "rewrite golden (transform, passes)" `Slow
      test_rewrite_golden;
    Alcotest.test_case "static golden (summaries, regions, items)" `Slow
      test_static_golden;
    Alcotest.test_case "transform golden (every suggestion, 2 and 4 chunks)"
      `Slow test_transform_golden;
    Alcotest.test_case "passes golden (rounds, changes, program)" `Slow
      test_passes_golden;
    Alcotest.test_case "static effects cover every profiled record" `Quick
      test_static_covers_dynamic ]
