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
      match Workloads.Catalog.find name with
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

(* ---- scramble-mode oracle ----

   The paper's race detection (§2.3.4) profiles with [scramble_unlocked],
   which delays and reorders unlocked accesses of concurrent threads
   before the engine sees them. "scramble.golden" pins
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
        match Workloads.Catalog.find name with
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
    match Workloads.Catalog.find "histogram" with
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
      ("perfect", Profiler.Engine.Perfect) ];
  (* The happens-before detector's path is held to the engines' cap. *)
  let hb () =
    Chunk.iter stream
      ~access:
        (Profiler.Happens_before.feed_fields (Profiler.Happens_before.create ()))
      ~remove:ignore
  in
  hb ();
  let w0 = Gc.minor_words () in
  hb ();
  let per_access = (Gc.minor_words () -. w0) /. n in
  if per_access > alloc_cap then
    Alcotest.failf "happens-before: %.2f minor words/access exceeds cap %.1f"
      per_access alloc_cap;
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
    (Gc.minor_words () -. w0) /. float_of_int r.accesses
  in
  if per_access > parallel_alloc_cap then
    Alcotest.failf "parallel producer: %.2f minor words/access exceeds cap %.1f"
      per_access parallel_alloc_cap

(* The fiber scheduler and the scramble buffer must not allocate per
   statement or per access beyond what switching fibers costs. Fork-join
   fib, parallelized as the transform-measure benchmark does, keeps a ready
   bag that grows with the problem size: its uninstrumented run must stay
   under [fiber_words_cap] minor words per statement, and the figure must
   not grow from size 12 to 15 (a list-based bag went 346 -> 1121). The
   scrambled profile of a transformed DOALL must stay under
   [scramble_alloc_cap] words per access (it was 33 with a list buffer). *)
let fiber_words_cap = 100.0
let fiber_growth_cap = 1.5
let scramble_alloc_cap = 8.0

let minor_words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

let test_scheduler_alloc () =
  let fib_words size =
    let prog =
      (Helpers.transform_case ("fib", size)).Transform.Parallelize.transformed
    in
    let words, r =
      minor_words (fun () -> Mil.Interp.run ~instrument:false prog)
    in
    let stmts = r.Mil.Interp.r_stats.statements in
    Alcotest.(check bool)
      (Printf.sprintf "fib@%d switches fibers" size) true
      (r.Mil.Interp.r_stats.switches > 0);
    let per_stmt = words /. float_of_int stmts in
    if per_stmt > fiber_words_cap then
      Alcotest.failf "fib@%d: %.1f minor words/statement exceeds cap %.0f" size
        per_stmt fiber_words_cap;
    per_stmt
  in
  let small = fib_words 12 and large = fib_words 15 in
  if large > fiber_growth_cap *. small then
    Alcotest.failf "words/statement grow with size: %.1f at 12, %.1f at 15"
      small large;
  let hist =
    (Helpers.transform_case ("histogram", 4000)).Transform.Parallelize.transformed
  in
  let words, r =
    minor_words (fun () -> Profiler.Serial.profile ~scramble_unlocked:true hist)
  in
  let per_access = words /. float_of_int r.Profiler.Serial.accesses in
  if per_access > scramble_alloc_cap then
    Alcotest.failf "scrambled profile: %.1f minor words/access exceeds cap %.0f"
      per_access scramble_alloc_cap

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

(* ---- loop-stack blocks ---- *)

(* A loop nest as a run pushes it: fresh instance ids, every iteration of an
   instance pushed once onto the instance's fixed outer stack, inner loops
   started under random iterations. Pushes [n] nodes into [t] and returns
   the flat reference: per id, (parent, line, inst, iter, depth). *)
let push_nest t ~n st =
  let refs = Array.make (n + 1) (0, 0, 0, 0, 0) in
  let count = ref 0 and next_inst = ref 0 in
  let rec loop outer depth =
    incr next_inst;
    let inst = !next_inst and line = 3 + (4 * Random.State.int st 4) in
    for iter = 0 to Random.State.int st 40 do
      if !count < n then begin
        let id = Intern.Lstack.push t ~parent:outer ~loop_line:line ~inst ~iter in
        incr count;
        if id <> !count then Alcotest.failf "push %d returned id %d" !count id;
        refs.(id) <- (outer, line, inst, iter, depth + 1);
        if depth < 5 && Random.State.int st 3 = 0 then loop id (depth + 1)
      end
    done
  in
  while !count < n do loop Intern.Lstack.empty 0 done;
  refs

let rec ref_frames refs id acc =
  if id = 0 then acc
  else
    let parent, loop_line, inst, iter, _ = refs.(id) in
    ref_frames refs parent ({ Event.loop_line; inst; iter } :: acc)

(* Three and a half blocks of nodes, parents in earlier blocks among them:
   every node reads back as the flat reference holds it, and the carrier of
   random pairs is the list-based reference's. *)
let test_lstack_blocks () =
  let st = Random.State.make [| 29 |] in
  let t = Intern.Lstack.create () in
  let n = (7 * Intern.Lstack.block_nodes / 2) in
  let refs = push_nest t ~n st in
  Alcotest.(check int) "nodes" (n + 1) (Intern.Lstack.nodes t);
  let block id = id / Intern.Lstack.block_nodes in
  let cross = ref 0 in
  for id = 1 to n do
    let parent, _, _, _, depth = refs.(id) in
    if block parent < block id then incr cross;
    if Intern.Lstack.depth t id <> depth then
      Alcotest.failf "depth of %d: %d, want %d" id (Intern.Lstack.depth t id)
        depth;
    if Intern.Lstack.to_frames t id <> ref_frames refs id [] then
      Alcotest.failf "frames of %d differ" id
  done;
  Alcotest.(check bool) "parents in earlier blocks" true (!cross > 100);
  for _ = 1 to 20_000 do
    let src = Random.State.int st (n + 1) and snk = Random.State.int st (n + 1) in
    let want =
      carrier_reference ~src:(ref_frames refs src []) ~snk:(ref_frames refs snk [])
    in
    let got = Intern.Lstack.carrier_code t ~src ~snk in
    if got <> want then
      Alcotest.failf "carrier %d -> %d: %d, want %d" src snk got want
  done;
  Alcotest.(check bool) "words cover four blocks" true
    (Intern.Lstack.words t >= 4 * 5 * Intern.Lstack.block_nodes)

(* The parallel profiler's publication pattern: the producer pushes nodes
   and sends their ids through a chunk ring to a reader domain, which reads
   each node as soon as it arrives, while the producer crosses block
   boundaries. Each slot carries one node as one access entry: its id, loop
   line, instance, iteration and depth in the address, variable, line,
   thread and time fields. *)
let test_lstack_reader_domain () =
  let module Q = Profiler.Spsc_queue in
  let st = Random.State.make [| 31 |] in
  let t = Intern.Lstack.create () in
  let n = 3 * Intern.Lstack.block_nodes + 100 in
  let q = Q.create ~locked:false ~capacity:64 in
  let reader =
    Domain.spawn (fun () ->
        let bad = ref 0 and seen = ref 0 in
        let rec go () =
          let c = Q.next q in
          if not (Chunk.is_empty c) then begin
            Chunk.iter c
              ~access:(fun ~kind:_ ~addr:id ~var:line ~line:inst ~thread:iter
                  ~time:depth ~op:_ ~lstack:_ ~locked:_ ->
                incr seen;
                match List.rev (Intern.Lstack.to_frames t id) with
                | f :: _
                  when f.Event.loop_line = line && f.inst = inst
                       && f.iter = iter && Intern.Lstack.depth t id = depth ->
                    ()
                | _ -> incr bad)
              ~remove:(fun _ -> incr bad);
            Q.release q;
            go ()
          end
        in
        go ();
        (!seen, !bad))
  in
  let count = ref 0 and next_inst = ref 0 in
  let rec loop outer depth =
    incr next_inst;
    let inst = !next_inst and line = 5 + Random.State.int st 3 in
    for iter = 0 to Random.State.int st 30 do
      if !count < n then begin
        let id = Intern.Lstack.push t ~parent:outer ~loop_line:line ~inst ~iter in
        incr count;
        Chunk.push_access (Q.slot q) ~kind:Event.Read ~addr:id ~var:line
          ~line:inst ~thread:iter ~time:(depth + 1) ~op:0 ~lstack:0
          ~locked:false;
        Q.push q;
        if depth < 4 && Random.State.int st 3 = 0 then loop id (depth + 1)
      end
    done
  in
  while !count < n do loop Intern.Lstack.empty 0 done;
  Q.close q;
  let seen, bad = Domain.join reader in
  Alcotest.(check int) "every id read" n seen;
  Alcotest.(check int) "every node read correctly" 0 bad

(* ---- the scramble drain ---- *)

module Scramble = Mil.Interp.Scramble
module Rng = Mil.Compile.Rng

(* The drain as it was first written, kept as the oracle: thread ids are
   kept sorted with [Array.blit], and each step rescans the buffer from
   slot 0 for the drawn thread's oldest access. *)
let oracle_drain rng (p : int array) n (sink : Event.access_sink) =
  let width = Scramble.width and f_thread = 4 in
  let p = Array.copy p and tids = Array.make Scramble.max_pending 0 in
  let nt = ref 0 in
  for i = 0 to n - 1 do
    let t = p.((i * width) + f_thread) in
    let j = ref 0 in
    while !j < !nt && tids.(!j) < t do incr j done;
    if !j = !nt || tids.(!j) <> t then begin
      Array.blit tids !j tids (!j + 1) (!nt - !j);
      tids.(!j) <- t;
      incr nt
    end
  done;
  while !nt > 0 do
    let j = Rng.int rng !nt in
    let thread = tids.(j) in
    let i = ref 0 in
    while p.((!i * width) + f_thread) <> thread do incr i done;
    let b = !i * width in
    p.(b + f_thread) <- -1;
    sink
      ~kind:(if p.(b) = 0 then Event.Read else Event.Write)
      ~addr:p.(b + 1) ~var:p.(b + 2) ~line:p.(b + 3) ~thread
      ~time:p.(b + 5) ~op:p.(b + 6) ~lstack:p.(b + 7) ~locked:false;
    let i = ref (!i + 1) in
    while !i < n && p.((!i * width) + f_thread) <> thread do incr i done;
    if !i = n then begin
      Array.blit tids (j + 1) tids j (!nt - j - 1);
      decr nt
    end
  done

let collect drain seed p n =
  let rng = Rng.create seed and acc = ref [] in
  drain rng p n (fun ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked ->
      acc := (kind, addr, var, line, thread, time, op, lstack, locked) :: !acc);
  (List.rev !acc, List.init 4 (fun _ -> Rng.int rng max_int))

(* Random buffers: 1-5 entries over a set of 1-5 thread ids in any order,
   random fields and seeds. The drain must emit what the oracle emits and
   leave the generator where the oracle leaves it. *)
let qcheck_drain_oracle =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 Scramble.max_pending in
    let* nthreads = int_range 1 Scramble.max_pending in
    let* threads = list_repeat nthreads (int_bound 20) in
    let* entries =
      list_repeat n
        (let* thread = oneofl threads in
         let* kind = int_bound 1 in
         let+ fields = list_repeat 6 (int_bound 1000) in
         (thread, kind, fields))
    in
    let+ seed = int in
    (seed, entries)
  in
  let buffer entries =
    let p = Array.make (Scramble.max_pending * Scramble.width) 0 in
    List.iteri
      (fun i (thread, kind, fields) ->
        let b = i * Scramble.width in
        p.(b) <- kind;
        p.(b + 4) <- thread;
        List.iteri
          (fun k v -> p.(b + [| 1; 2; 3; 5; 6; 7 |].(k)) <- v)
          fields)
      entries;
    p
  in
  let print (seed, entries) =
    Printf.sprintf "seed %d, threads [%s]" seed
      (String.concat ";"
         (List.map (fun (t, _, _) -> string_of_int t) entries))
  in
  QCheck.Test.make ~name:"scramble drain agrees with the oracle" ~count:2000
    (QCheck.make ~print gen)
    (fun (seed, entries) ->
      let p = buffer entries and n = List.length entries in
      let sc = Scramble.scratch () in
      collect (Scramble.drain sc) seed p n = collect oracle_drain seed p n)

(* ---- chunk rings ---- *)

(* A refilled chunk decodes only its new fill: a new length forgets the old
   entries without clearing them, as a ring slot's next lap does. *)
let test_chunk_fill_refill () =
  let c = Chunk.create ~capacity:4 () in
  Alcotest.(check bool) "fresh empty" true (Chunk.is_empty c);
  List.iter (Chunk.push_remove c) [ 10; 20; 30; 40 ];
  Alcotest.(check bool) "full" true (Chunk.is_full c);
  let removed () =
    let xs = ref [] in
    Chunk.iter c
      ~access:(fun ~kind:_ ~addr:_ ~var:_ ~line:_ ~thread:_ ~time:_ ~op:_
          ~lstack:_ ~locked:_ -> Alcotest.fail "no access was pushed")
      ~remove:(fun a -> xs := a :: !xs);
    List.rev !xs
  in
  Alcotest.(check (list int)) "contents" [ 10; 20; 30; 40 ] (removed ());
  Chunk.clear c;
  Alcotest.(check bool) "clear empties" true (Chunk.is_empty c);
  List.iter (Chunk.push_remove c) [ 7; 8 ];
  Alcotest.(check (list int)) "iter covers only the new fill" [ 7; 8 ]
    (removed ())

(* Parallel profiling over refilled ring slots must agree with serial
   profiling (same merged records) — a slot must never tear or resurrect
   entries — in the lock-free ring and in the lock-based baseline. 300k
   accesses over 3 workers fill each worker's 64-slot ring with 512-entry
   chunks past capacity, so the producer waits for slots and refills them:
   it ships more chunks than it allocates buffers. *)
let test_pooled_parallel_equivalence () =
  let prog =
    Workloads.Registry.program ~size:20_000 (Helpers.workload "histogram")
  in
  let serial =
    (Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect prog)
      .Profiler.Serial.deps
  in
  let workers = 3 in
  List.iter
    (fun queue ->
      Obs.disable ();
      Obs.reset ();
      Obs.enable ();
      let par, buffers, shipped =
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
            let r =
              Profiler.Parallel.profile ~queue ~workers ~perfect:true prog
            in
            ( r.deps,
              Obs.counter_value "profiler.chunk.buffers",
              Obs.counter_value "profiler.parallel.chunks_shipped" ))
      in
      Alcotest.(check bool)
        (Printf.sprintf "buffers %d <= 64 x %d < shipped %d" buffers workers
           shipped)
        true
        (buffers <= 64 * workers && 64 * workers < shipped);
      Helpers.check_same_deps "pooled parallel differs from serial" serial par)
    [ Profiler.Parallel.Lockfree; Profiler.Parallel.Lock_based ];
  (* A short run allocates only the buffers it ships: at most one per
     worker for fig27's few hundred accesses, none for its stop marks. *)
  Obs.enable ();
  let buffers, shipped =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        ignore (Profiler.Parallel.profile ~workers:4 ~perfect:true Helpers.fig27);
        ( Obs.counter_value "profiler.chunk.buffers",
          Obs.counter_value "profiler.parallel.chunks_shipped" ))
  in
  Alcotest.(check bool)
    (Printf.sprintf "fig27: buffers %d <= shipped %d <= 4" buffers shipped)
    true
    (0 < buffers && buffers <= shipped && shipped <= 4)

let tests =
  [ Alcotest.test_case "golden depfile sweep byte-identical" `Slow
      test_golden_sweep;
    Alcotest.test_case "scramble-mode golden (depfiles, races)" `Quick
      test_scramble_golden;
    Alcotest.test_case "per-access allocation under cap" `Quick
      test_alloc_regression;
    Alcotest.test_case "fiber scheduler and scrambler allocation" `Quick
      test_scheduler_alloc;
    Alcotest.test_case "symbol intern round-trip" `Quick test_sym_roundtrip;
    Alcotest.test_case "loop-stack intern round-trip" `Quick
      test_lstack_roundtrip;
    Alcotest.test_case "interned carrier agrees with reference" `Quick
      test_carrier_agreement;
    QCheck_alcotest.to_alcotest qcheck_carrier_agreement;
    Alcotest.test_case "loop stacks across blocks" `Quick test_lstack_blocks;
    Alcotest.test_case "loop stacks read from another domain" `Quick
      test_lstack_reader_domain;
    QCheck_alcotest.to_alcotest qcheck_drain_oracle;
    Alcotest.test_case "chunk fill and refill" `Quick test_chunk_fill_refill;
    Alcotest.test_case "pooled parallel equals serial" `Quick
      test_pooled_parallel_equivalence ]
