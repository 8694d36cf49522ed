(* Hot-path overhaul safety net: byte-identical depfile output against
   committed golden files, intern round-trips, and chunk recycling.

   The golden files pin the profiler's observable output across the interning
   / monomorphic-engine / chunk-pooling changes: any byte that moves is a
   semantic change, not an optimization. *)

module Intern = Trace.Intern
module Event = Trace.Event
module Chunk = Trace.Chunk

(* ---- golden depfile sweep ---- *)

(* A golden file "name.deps" is the serial profile of workload [name] with
   the exact (Perfect) shadow at the pinned size below and the default seed;
   "name.sig4096.deps" the same with a 4096-slot signature shadow. Serial
   only: parallel domain ids are scheduling-dependent. *)
let golden_sizes =
  [ ("histogram", 500); ("mandelbrot", 12); ("matmul", 10); ("dotprod", 800);
    ("prefix_sum", 400); ("jacobi", 100); ("gauss_seidel", 100);
    ("monte_carlo", 500); ("fib", 10); ("sort", 128); ("sparselu", 4);
    ("nqueens", 5) ]
(* Under `dune runtest` the cwd is the test directory; under
   `dune exec test/test_main.exe` it is the project root. *)
let golden_dir =
  if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

let golden_files () =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".deps")
  |> List.sort compare

let workload_of_file f =
  let base = Filename.chop_suffix f ".deps" in
  match Filename.extension base with
  | ".sig4096" ->
      (Filename.chop_suffix base ".sig4096",
       Profiler.Engine.Signature 4096)
  | _ -> (base, Profiler.Engine.Perfect)

let find_workload name =
  List.find_opt
    (fun (w : Workloads.Registry.t) -> w.name = name)
    (Workloads.Textbook.all @ Workloads.Nas.all @ Workloads.Starbench.all
   @ Workloads.Bots.all @ Workloads.Apps.all @ Workloads.Splash2x.all
   @ Workloads.Numerics.all @ Workloads.Parsec.all)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_sweep () =
  let files = golden_files () in
  Alcotest.(check bool)
    "golden corpus present" true
    (List.length files >= 10);
  List.iter
    (fun f ->
      let name, shadow = workload_of_file f in
      match find_workload name with
      | None -> Alcotest.failf "golden %s: unknown workload %s" f name
      | Some w ->
          let size =
            match List.assoc_opt name golden_sizes with
            | Some s -> s
            | None -> w.default_size
          in
          let prog = Workloads.Registry.program ~size w in
          let r = Profiler.Serial.profile ~shadow prog in
          let got = Profiler.Depfile.render r.Profiler.Serial.deps in
          let want = read_file (Filename.concat golden_dir f) in
          Alcotest.(check string) (Printf.sprintf "depfile bytes: %s" f) want got)
    files

(* The paged (two-level) shadow is exact, like Perfect: profiling any
   workload with it must reproduce the Perfect golden files byte for byte.
   This pins all three backends to one observable output through the packed
   slot-store re-encoding. *)
let test_paged_golden_agreement () =
  golden_files ()
  |> List.filter (fun f -> workload_of_file f |> snd = Profiler.Engine.Perfect)
  |> List.iter (fun f ->
         let name, _ = workload_of_file f in
         match find_workload name with
         | None -> Alcotest.failf "golden %s: unknown workload %s" f name
         | Some w ->
             let size =
               match List.assoc_opt name golden_sizes with
               | Some s -> s
               | None -> w.default_size
             in
             let prog = Workloads.Registry.program ~size w in
             let r = Profiler.Serial.profile ~shadow:Profiler.Engine.Paged prog in
             let got = Profiler.Depfile.render r.Profiler.Serial.deps in
             let want = read_file (Filename.concat golden_dir f) in
             Alcotest.(check string)
               (Printf.sprintf "paged depfile bytes: %s" f)
               want got)

(* ---- scramble-mode oracle ----

   Race detection (§2.3.4) and [Validate]'s race check profile with
   [scramble_unlocked], which delays and reorders unlocked accesses of
   concurrent threads before the engine sees them. "scramble.golden" pins
   that path on two threaded programs whose threads share data without
   locks: per (program, seed), the depfile bytes and the sorted race list.

   Regenerate (only for a deliberate semantic change) with
     SCRAMBLE_GOLDEN_OUT=test/golden/scramble.golden \
       dune exec test/test_main.exe -- test hotpath *)
let scramble_cases = [ ("water-nsq", 12); ("fmm", 8) ]
let scramble_seeds = [ 1; 2; 3 ]

let scramble_output () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, size) ->
      let w =
        match find_workload name with
        | Some w -> w
        | None -> Alcotest.failf "scramble oracle: unknown workload %s" name
      in
      let prog = Workloads.Registry.program ~size w in
      List.iter
        (fun seed ->
          let r = Profiler.Serial.profile ~scramble_unlocked:true ~seed prog in
          Printf.bprintf b "== %s size %d seed %d\n" name size seed;
          Buffer.add_string b (Profiler.Depfile.render r.Profiler.Serial.deps);
          List.iter
            (fun (var, l1, l2) -> Printf.bprintf b "race %s %d %d\n" var l1 l2)
            (List.sort compare r.Profiler.Serial.races))
        scramble_seeds)
    scramble_cases;
  Buffer.contents b

let test_scramble_golden () =
  let got = scramble_output () in
  (match Sys.getenv_opt "SCRAMBLE_GOLDEN_OUT" with
  | Some path when path <> "" ->
      let oc = open_out_bin path in
      output_string oc got;
      close_out oc
  | _ -> ());
  let want = read_file (Filename.concat golden_dir "scramble.golden") in
  Alcotest.(check bool) "oracle sees races" true
    (List.exists (String.starts_with ~prefix:"race ")
       (String.split_on_char '\n' want));
  Alcotest.(check string) "scramble-mode depfiles and races" want got

(* ---- allocation regression ---- *)

(* The zero-alloc fast path (off-heap slot store, scratch cells, closure-free
   probe loops, two-way dedup slots) must not silently regrow a per-access
   allocation: feed a pre-recorded stream through each backend and hold the
   GC minor-words delta per access under a hard cap. The cap (3.0) leaves
   room for amortized table growth (Perfect sits near 0.5); the seed engine
   burned ~14 words per access. *)
let alloc_cap = 3.0
let parallel_alloc_cap = 10.0

(* The access stream, packed into one chunk sized by a first, uninstrumented
   run's access count, with the loop-stack table its stack ids refer to. *)
let record_stream prog =
  let s = (Mil.Interp.run ~instrument:false prog).Mil.Interp.r_stats in
  let lstacks = Intern.Lstack.create () in
  let c = Chunk.create ~capacity:(s.reads + s.writes) () in
  ignore (Mil.Interp.run ~lstacks ~on_access:(Chunk.push_access c) prog);
  (lstacks, c)

let replay e stream =
  Chunk.iter stream ~access:(Profiler.Engine.feed_fields e) ~remove:ignore

let test_alloc_regression () =
  let w =
    match find_workload "histogram" with
    | Some w -> w
    | None -> Alcotest.fail "histogram workload missing"
  in
  let lstacks, stream = record_stream (Workloads.Registry.program ~size:1000 w) in
  let n = float_of_int (Chunk.length stream) in
  Alcotest.(check bool) "stream non-trivial" true (Chunk.length stream > 1000);
  List.iter
    (fun (label, shadow) ->
      (* Warm run: interning, carrier memo fills and shadow-table growth are
         one-time costs, not per-access ones. *)
      replay (Profiler.Engine.create ~lstacks shadow) stream;
      let e = Profiler.Engine.create ~lstacks shadow in
      let w0 = Gc.minor_words () in
      replay e stream;
      let per_access = (Gc.minor_words () -. w0) /. n in
      if per_access > alloc_cap then
        Alcotest.failf "%s: %.2f minor words/access exceeds cap %.1f" label
          per_access alloc_cap)
    [ ("sig", Profiler.Engine.Signature 4096);
      ("perfect", Profiler.Engine.Perfect);
      ("paged", Profiler.Engine.Paged) ];
  (* The parallel profiler's producer runs the interpreter and packs every
     access into a chunk on the calling domain; the engines run on the
     worker's. Its cap is wider: the interpreter and the hot-address
     counting table allocate a few words per access of their own. *)
  let prog = Workloads.Registry.program ~size:1000 w in
  let parallel () = Profiler.Parallel.profile ~workers:1 ~perfect:true prog in
  ignore (parallel ());
  let w0 = Gc.minor_words () in
  let r = parallel () in
  let per_access =
    (Gc.minor_words () -. w0) /. float_of_int r.Profiler.Parallel.accesses
  in
  if per_access > parallel_alloc_cap then
    Alcotest.failf "parallel producer: %.2f minor words/access exceeds cap %.1f"
      per_access parallel_alloc_cap

(* ---- interning ---- *)

let test_sym_roundtrip () =
  let names = [ "x"; "sum"; "a_rather_long_variable_name"; ""; "x" ] in
  let syms = List.map Intern.Sym.intern names in
  List.iter2
    (fun n s -> Alcotest.(check string) "name round-trip" n (Intern.Sym.name s))
    names syms;
  (* Same string -> same symbol. *)
  Alcotest.(check int) "stable intern" (List.hd syms)
    (List.nth syms 4)

let frames_of l = List.map (fun (a, b, c) -> { Event.loop_line = a; inst = b; iter = c }) l

let test_lstack_roundtrip () =
  let stacks =
    [ []; [ (3, 1, 0) ]; [ (3, 1, 4); (7, 2, 9) ];
      [ (3, 1, 4); (7, 2, 9); (11, 5, 0) ] ]
    |> List.map frames_of
  in
  let t = Intern.Lstack.create () in
  List.iter
    (fun fs ->
      let id = Intern.Lstack.of_frames t fs in
      Alcotest.(check int) "depth" (List.length fs) (Intern.Lstack.depth t id);
      Alcotest.(check bool) "frames round-trip" true
        (Intern.Lstack.to_frames t id = fs);
      (* Re-interning on the same table is the identity. *)
      Alcotest.(check int) "stable id" id (Intern.Lstack.of_frames t fs))
    stacks;
  Alcotest.(check int) "empty is id 0" Intern.Lstack.empty
    (Intern.Lstack.of_frames t [])

let carrier_reference ~src ~snk =
  match Event.carrier ~src ~snk with
  | Some f -> f.Event.loop_line
  | None -> -1

let carrier_of_table t ~src ~snk =
  Intern.Lstack.carrier_code t ~src:(Intern.Lstack.of_frames t src)
    ~snk:(Intern.Lstack.of_frames t snk)

(* The table's carrier must agree with the reference list-based computation
   on every stack pair, including partial overlaps and depth mismatches. *)
let test_carrier_agreement () =
  let cases =
    [ ([], []);
      ([ (3, 1, 0) ], []);
      ([], [ (3, 1, 0) ]);
      ([ (3, 1, 0) ], [ (3, 1, 0) ]);         (* same iteration *)
      ([ (3, 1, 0) ], [ (3, 1, 1) ]);         (* carried by loop 3 *)
      ([ (3, 1, 0); (7, 2, 5) ], [ (3, 1, 0); (7, 2, 6) ]);  (* inner *)
      ([ (3, 1, 0); (7, 2, 5) ], [ (3, 1, 1); (7, 3, 0) ]);  (* outer *)
      ([ (3, 1, 0); (7, 2, 5) ], [ (3, 1, 0) ]);   (* sink outside inner *)
      ([ (3, 1, 0) ], [ (3, 1, 0); (7, 2, 5) ]);   (* src outside inner *)
      ([ (3, 4, 0) ], [ (3, 9, 2) ]) ]             (* distinct loop entries *)
    |> List.map (fun (a, b) -> (frames_of a, frames_of b))
  in
  let t = Intern.Lstack.create () in
  List.iter
    (fun (src, snk) ->
      Alcotest.(check int)
        (Printf.sprintf "carrier src=%d snk=%d" (List.length src)
           (List.length snk))
        (carrier_reference ~src ~snk) (carrier_of_table t ~src ~snk))
    cases

(* Random stack pairs as one run produces them: every loop instance is
   fresh, lines repeat across instances, and the sink keeps a prefix of the
   source's stack (its last frame possibly one iteration on) before going
   its own way. A case pushes a batch of pairs into one table, enough to
   grow it. *)
let gen_stack_pairs =
  let open QCheck.Gen in
  let frame = pair (oneofl [ 3; 7; 11 ]) (int_bound 3) in
  let shape =
    let* base = list_size (int_bound 4) frame in
    let* keep = int_bound (List.length base) in
    let* bump = bool in
    let* ext = list_size (int_bound 3) frame in
    let+ swap = bool in
    (base, keep, bump, ext, swap)
  in
  let+ shapes = list_size (int_range 1 80) shape in
  let next = ref 0 in
  let fresh (loop_line, iter) =
    incr next;
    { Event.loop_line; inst = !next; iter }
  in
  List.map
    (fun (base, keep, bump, ext, swap) ->
      let src = List.map fresh base in
      let shared = List.filteri (fun i _ -> i < keep) src in
      let shared =
        match List.rev shared with
        | f :: outer when bump -> List.rev ({ f with iter = f.iter + 1 } :: outer)
        | _ -> shared
      in
      let snk = shared @ List.map fresh ext in
      if swap then (snk, src) else (src, snk))
    shapes

let qcheck_carrier_agreement =
  let show_frames fs =
    String.concat ";"
      (List.map
         (fun f ->
           Printf.sprintf "%d/%d/%d" f.Event.loop_line f.Event.inst f.Event.iter)
         fs)
  in
  let print pairs =
    String.concat "\n"
      (List.map
         (fun (a, b) -> Printf.sprintf "[%s] -> [%s]" (show_frames a) (show_frames b))
         pairs)
  in
  QCheck.Test.make ~name:"table carrier agrees with reference on random stacks"
    ~count:200
    (QCheck.make ~print gen_stack_pairs)
    (fun pairs ->
      let t = Intern.Lstack.create () in
      List.for_all
        (fun (src, snk) ->
          carrier_of_table t ~src ~snk = carrier_reference ~src ~snk)
        pairs)

(* ---- chunk pooling ---- *)

(* A recycled chunk decodes only its new fill: reset forgets the old
   entries without clearing them. *)
let test_chunk_fill_reset () =
  let c = Chunk.create ~capacity:4 ~seq:7 () in
  Alcotest.(check bool) "fresh empty" true (Chunk.is_empty c);
  List.iter (Chunk.push_remove c) [ 10; 20; 30; 40 ];
  Alcotest.(check bool) "full" true (Chunk.is_full c);
  Alcotest.(check int) "seq" 7 (Chunk.seq c);
  let removed () =
    let xs = ref [] in
    Chunk.iter c
      ~access:(fun ~kind:_ ~addr:_ ~var:_ ~line:_ ~thread:_ ~time:_ ~op:_
          ~lstack:_ ~locked:_ -> Alcotest.fail "no access was pushed")
      ~remove:(fun a -> xs := a :: !xs);
    List.rev !xs
  in
  Alcotest.(check (list int)) "contents" [ 10; 20; 30; 40 ] (removed ());
  Chunk.reset c;
  Alcotest.(check bool) "reset empties" true (Chunk.is_empty c);
  Chunk.set_seq c 42;
  List.iter (Chunk.push_remove c) [ 7; 8 ];
  Alcotest.(check int) "recycled seq" 42 (Chunk.seq c);
  Alcotest.(check (list int)) "iter covers only the new fill" [ 7; 8 ]
    (removed ())

(* Parallel profiling with chunk recycling must agree with serial profiling
   (same merged records) — the pool must never tear or resurrect entries.
   A tiny chunk capacity maximizes recycling churn. *)
let test_pooled_parallel_equivalence () =
  let prog = Helpers.fig27 in
  let serial =
    (Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect prog)
      .Profiler.Serial.deps
  in
  let par =
    (Profiler.Parallel.profile ~workers:3 ~perfect:true ~chunk_capacity:8 prog)
      .Profiler.Parallel.deps
  in
  Helpers.check_same_deps "pooled parallel differs from serial" serial par

let tests =
  [ Alcotest.test_case "golden depfile sweep byte-identical" `Slow
      test_golden_sweep;
    Alcotest.test_case "paged backend matches perfect goldens" `Slow
      test_paged_golden_agreement;
    Alcotest.test_case "scramble-mode golden (depfiles, races)" `Quick
      test_scramble_golden;
    Alcotest.test_case "per-access allocation under cap" `Quick
      test_alloc_regression;
    Alcotest.test_case "symbol intern round-trip" `Quick test_sym_roundtrip;
    Alcotest.test_case "loop-stack intern round-trip" `Quick
      test_lstack_roundtrip;
    Alcotest.test_case "interned carrier agrees with reference" `Quick
      test_carrier_agreement;
    QCheck_alcotest.to_alcotest qcheck_carrier_agreement;
    Alcotest.test_case "chunk fill/reset/seq" `Quick test_chunk_fill_reset;
    Alcotest.test_case "pooled parallel equals serial" `Quick
      test_pooled_parallel_equivalence ]
