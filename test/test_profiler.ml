(* Tests for the profiler: Algorithm 2 semantics (Table 2.2/2.3 ground
   truth), INIT handling, loop-carried tagging, merging, lifetime analysis,
   the §2.4 skip optimization, the PET, races, the report format, and
   serial/parallel/lock-based equivalence — including property tests over
   random programs. *)

open Mil
module B = Builder
module Dep = Profiler.Dep

let has_dep deps ~sink ~dtype ~src ~var ~carried =
  List.exists
    (fun (d, _) ->
      d.Dep.sink_line = sink && d.Dep.dtype = dtype && d.Dep.src_line = src
      && d.Dep.var = var
      && (match carried with
         | None -> d.Dep.carrier = None
         | Some l -> d.Dep.carrier = Some l))
    (Dep.Set_.to_list deps)

(* Figure 2.7 / Table 2.2: the while loop's dependence set. Lines:
   1 func, 2 decl k, 3 decl sum, 4 while, 5 sum+=k*2, 6 k-=1. *)
let test_fig27_deps () =
  let r = Helpers.profile Helpers.fig27 in
  let d = r.Profiler.Serial.deps in
  (* dependence 1: WAR sum at line 5 (intra-iteration) *)
  Alcotest.(check bool) "WAR sum@5" true
    (has_dep d ~sink:5 ~dtype:Dep.War ~src:5 ~var:"sum" ~carried:None);
  (* dependence 5-8 of Table 2.2 are the loop-carried RAWs *)
  Alcotest.(check bool) "RAW k: condition reads last iteration's k" true
    (has_dep d ~sink:4 ~dtype:Dep.Raw ~src:6 ~var:"k" ~carried:(Some 4));
  Alcotest.(check bool) "RAW sum carried" true
    (has_dep d ~sink:5 ~dtype:Dep.Raw ~src:5 ~var:"sum" ~carried:(Some 4));
  Alcotest.(check bool) "RAW k carried into body" true
    (has_dep d ~sink:5 ~dtype:Dep.Raw ~src:6 ~var:"k" ~carried:(Some 4));
  Alcotest.(check bool) "RAW k self carried" true
    (has_dep d ~sink:6 ~dtype:Dep.Raw ~src:6 ~var:"k" ~carried:(Some 4));
  (* intra-iteration chain: sum@5 reads decl sum@3 on iteration 0 *)
  Alcotest.(check bool) "RAW sum from init" true
    (has_dep d ~sink:5 ~dtype:Dep.Raw ~src:3 ~var:"sum" ~carried:None);
  (* first writes are INITs *)
  Alcotest.(check bool) "INIT at decl k" true
    (has_dep d ~sink:2 ~dtype:Dep.Init ~src:0 ~var:"*" ~carried:None)

let test_rar_ignored () =
  let p =
    let open B in
    Helpers.prog_of_main
      [ decl "x" (i 1); decl "a" (v "x"); decl "b" (v "x"); return (v "a" + v "b") ]
  in
  let r = Helpers.profile p in
  (* No dependence between the two reads of x; both RAW from the decl. *)
  Alcotest.(check bool) "no read-to-read dep" true
    (List.for_all
       (fun (d, _) ->
         not (d.Dep.dtype = Dep.Raw && d.Dep.src_line = 3 && d.Dep.var = "x"))
       (Dep.Set_.to_list r.Profiler.Serial.deps))

let test_waw_init () =
  let p =
    let open B in
    Helpers.prog_of_main ~globals:[ B.gscalar "x" 0 ]
      [ set "x" (i 1); set "x" (i 2); set "x" (i 3) ]
  in
  let r = Helpers.profile p in
  let d = r.Profiler.Serial.deps in
  Alcotest.(check bool) "first write is INIT" true
    (has_dep d ~sink:2 ~dtype:Dep.Init ~src:0 ~var:"*" ~carried:None);
  Alcotest.(check bool) "WAW 3<-2" true
    (has_dep d ~sink:3 ~dtype:Dep.Waw ~src:2 ~var:"x" ~carried:None);
  Alcotest.(check bool) "WAW 4<-3" true
    (has_dep d ~sink:4 ~dtype:Dep.Waw ~src:3 ~var:"x" ~carried:None)

let test_merging () =
  let r = Helpers.profile Helpers.fig27 in
  Alcotest.(check bool) "100 iterations merge into few records" true
    (Dep.Set_.cardinal r.Profiler.Serial.deps < 25);
  Alcotest.(check bool) "merging factor substantial" true
    (r.Profiler.Serial.merging_factor > 10.0)

let test_lifetime_analysis () =
  (* Block locals are recycled; without lifetime removal the recycled address
     would link iterations through a false dependence. With removal, `tmp`
     shows INIT each iteration and no carried RAW. *)
  let p =
    let open B in
    Helpers.prog_of_main
      [ for_ "k" (i 0) (i 10) [ decl "tmp" (v "k"); set "tmp" (v "tmp" + i 1) ] ]
  in
  let r = Helpers.profile p in
  Alcotest.(check bool) "no carried RAW on recycled local" true
    (List.for_all
       (fun (d, _) ->
         not (d.Dep.var = "tmp" && d.Dep.dtype = Dep.Raw && d.Dep.carrier <> None))
       (Dep.Set_.to_list r.Profiler.Serial.deps))

let test_loop_carried_tagging () =
  let p =
    let open B in
    Helpers.prog_of_main ~globals:[ B.garray "a" 8 ]
      [ for_ "s" (i 0) (i 3)
          [ for_ "k" (i 1) (i 7)
              [ seti "a" (v "k") ("a".%[v "k" - i 1] + "a".%[v "k" + i 1]) ] ] ]
  in
  let r = Helpers.profile p in
  let d = r.Profiler.Serial.deps in
  (* a[k-1] was written in the previous k-iteration: carried at the inner
     loop (line 3); a[k+1] was last written in the previous sweep: carried at
     the outer loop (line 2). *)
  Alcotest.(check bool) "carried at inner loop" true
    (List.exists
       (fun (dd, _) ->
         dd.Dep.var = "a" && dd.Dep.dtype = Dep.Raw && dd.Dep.carrier = Some 3)
       (Dep.Set_.to_list d));
  Alcotest.(check bool) "carried at outer loop" true
    (List.exists
       (fun (dd, _) ->
         dd.Dep.var = "a" && dd.Dep.dtype = Dep.Raw && dd.Dep.carrier = Some 2)
       (Dep.Set_.to_list d))

(* ---- §2.4 skipping ---- *)

let test_skip_preserves_deps () =
  List.iter
    (fun p ->
      let plain = Helpers.profile ~skip:false p in
      let skip = Helpers.profile ~skip:true p in
      Helpers.check_same_deps "skip changes deps" plain.Profiler.Serial.deps
        skip.Profiler.Serial.deps;
      Alcotest.(check bool) "something was skipped" true
        (skip.Profiler.Serial.skip_stats.Profiler.Engine.reads_skipped > 0))
    [ Helpers.fig27; Helpers.fig28; Helpers.fig34 ]

let test_skip_rates () =
  let r = Helpers.profile ~skip:true Helpers.fig27 in
  let s = r.Profiler.Serial.skip_stats in
  let open Profiler.Engine in
  Alcotest.(check bool) "most dep-leading reads skipped" true
    (s.reads_skipped * 2 > s.reads_total);
  Alcotest.(check bool) "skip classification covers all skips" true
    (s.skipped_raw = s.reads_skipped
    && s.skipped_war + s.skipped_waw >= s.writes_skipped)

let test_fig28_skip_table () =
  (* Fig 2.8 / Table 2.4-2.5: after the first two iterations the four memory
     operations on x are all skippable; only 4 distinct deps + INITs are in
     the final set. *)
  let plain = Helpers.profile ~skip:false Helpers.fig28 in
  let skip = Helpers.profile ~skip:true Helpers.fig28 in
  Helpers.check_same_deps "fig28" plain.Profiler.Serial.deps
    skip.Profiler.Serial.deps;
  let s = skip.Profiler.Serial.skip_stats in
  Alcotest.(check bool) "steady state skips reads and writes" true
    Profiler.Engine.(s.reads_skipped > 40 && s.writes_skipped > 40)

let qcheck_skip_equivalence =
  let open QCheck in
  Test.make ~name:"skip optimization never changes the dependence set"
    ~count:120 Helpers.Gen.arbitrary_program (fun p ->
      let plain = Helpers.profile ~skip:false p in
      let skip = Helpers.profile ~skip:true p in
      let fpr, fnr =
        Dep.Set_.accuracy ~truth:plain.Profiler.Serial.deps
          ~got:skip.Profiler.Serial.deps
      in
      fpr = 0.0 && fnr = 0.0)

(* ---- signature accuracy ---- *)

let test_signature_accuracy_improves_with_slots () =
  let p = Workloads.Registry.program ~size:300 (List.hd Workloads.Textbook.all) in
  let perfect = Helpers.profile ~shadow:Profiler.Engine.Perfect p in
  let err slots =
    let r = Helpers.profile ~shadow:(Profiler.Engine.Signature slots) p in
    let fpr, fnr =
      Dep.Set_.accuracy_weighted ~truth:perfect.Profiler.Serial.deps
        ~got:r.Profiler.Serial.deps
    in
    fpr +. fnr
  in
  let tiny = err 13 and big = err 1_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "tiny sig err %.3f >= big sig err %.3f" tiny big)
    true (tiny >= big);
  (* even a huge signature has a small birthday-collision probability; the
     paper's Table 2.6 shows the same sub-percent residual error — weighted
     by dynamic occurrences a rare collision is negligible *)
  Alcotest.(check bool) (Printf.sprintf "big signature err %.4f < 1%%" big) true
    (big < 0.01)

(* ---- PET ---- *)

let test_pet_structure () =
  let r = Helpers.profile Helpers.fig27 in
  let pet = r.Profiler.Serial.pet in
  let root = Profiler.Pet.node pet 0 in
  (match root.Profiler.Pet.kind with
  | Profiler.Pet.Fnode f -> Alcotest.(check string) "root is main" "main" f
  | _ -> Alcotest.fail "root not a function");
  let loops = ref [] in
  Profiler.Pet.iter
    (fun n ->
      match n.Profiler.Pet.kind with
      | Profiler.Pet.Lnode l -> loops := (l, n.Profiler.Pet.iterations) :: !loops
      | _ -> ())
    pet;
  Alcotest.(check (list (pair int int))) "one loop, 100 iterations" [ (4, 100) ]
    !loops;
  Alcotest.(check int) "instructions counted" r.Profiler.Serial.accesses
    (Profiler.Pet.total_instructions pet)

let test_pet_merges_instances () =
  let p =
    let open B in
    B.number
      (B.program ~entry:"main" "t"
         [ B.func "leaf" ~params:[ "x" ] [ return (v "x" + i 1) ];
           B.func "main"
             [ decl "s" (i 0);
               for_ "k" (i 0) (i 5) [ set "s" (call "leaf" [ v "s" ]) ];
               return (v "s") ] ])
  in
  let r = Helpers.profile p in
  let count = ref 0 in
  Profiler.Pet.iter
    (fun n ->
      match n.Profiler.Pet.kind with
      | Profiler.Pet.Fnode "leaf" ->
          incr count;
          Alcotest.(check int) "5 instances merged" 5 n.Profiler.Pet.instances
      | _ -> ())
    r.Profiler.Serial.pet;
  Alcotest.(check int) "exactly one merged node" 1 !count

(* [attach_deps] against the naive count it replaces: for every node, the
   distinct records whose sink lies in [first_line, last_line]. The tree is
   a root function with one block per span; the spans are then overwritten
   with random ones, inverted (empty) and [first_line = 0] included. Sinks
   are a multiset: records sharing a sink line differ by thread, and a
   repeated (line, thread) pair is one record. *)
let pet_with_spans spans =
  let b = Profiler.Pet.create_builder () in
  Profiler.Pet.feed_region b
    (Trace.Event.Func_entry { name = "main"; line = 1; call_line = 0 });
  List.iteri
    (fun k _ ->
      Profiler.Pet.feed_access_line b ~line:(k + 1);
      Profiler.Pet.feed_region b
        (Trace.Event.Loop_iter { line = 0; inst = 0; iter = k }))
    spans;
  let pet = Profiler.Pet.finish b in
  List.iteri
    (fun k (first, last) ->
      let n = Profiler.Pet.node pet (k + 1) in
      n.Profiler.Pet.first_line <- first;
      n.Profiler.Pet.last_line <- last)
    spans;
  pet

(* Parsed programs may carry any explicit line numbers. Lines that do not
   fit a node key's payload bits must still key distinct nodes: 3 and
   3 + 2^29 would share the low bits, and -1 has them all set. *)
let test_pet_wide_lines () =
  let b = Profiler.Pet.create_builder () in
  Profiler.Pet.feed_region b
    (Trace.Event.Func_entry { name = "main"; line = 1; call_line = 0 });
  let lines = [ 3; 3 + (1 lsl 29); -1; 3; max_int; -1 ] in
  List.iteri
    (fun k line ->
      Profiler.Pet.feed_access_line b ~line;
      Profiler.Pet.feed_region b
        (Trace.Event.Loop_iter { line = 0; inst = 0; iter = k }))
    lines;
  let pet = Profiler.Pet.finish b in
  let blocks = ref [] in
  Profiler.Pet.iter
    (fun n ->
      match n.Profiler.Pet.kind with
      | Profiler.Pet.Bnode l -> blocks := (l, n.Profiler.Pet.instances) :: !blocks
      | _ -> ())
    pet;
  Alcotest.(check (list (pair int int)))
    "one block per distinct line"
    [ (3, 2); (3 + (1 lsl 29), 1); (-1, 2); (max_int, 1) ]
    (List.rev !blocks)

let qcheck_attach_deps_sweep =
  let open QCheck in
  let line = int_range 0 24 in
  Test.make ~name:"attach_deps equals the naive per-node count" ~count:300
    (pair
       (list_of_size Gen.(0 -- 30) (pair line line))
       (list_of_size Gen.(0 -- 40) (pair line (int_range 0 2))))
    (fun (spans, sinks) ->
      let pet = pet_with_spans spans in
      let deps = Dep.Set_.create () in
      List.iter
        (fun (sink_line, sink_thread) ->
          Dep.Set_.add deps (Dep.init_dep ~sink_line ~sink_thread))
        sinks;
      let naive (n : Profiler.Pet.node) =
        let c = ref 0 in
        Dep.Set_.iter
          (fun d _ ->
            if d.Dep.sink_line >= n.first_line && d.Dep.sink_line <= n.last_line
            then incr c)
          deps;
        !c
      in
      let counts () =
        List.init (Profiler.Pet.size pet) (fun id ->
            (Profiler.Pet.node pet id).Profiler.Pet.dep_count)
      in
      Profiler.Pet.attach_deps pet deps;
      let once = counts () in
      Profiler.Pet.attach_deps pet deps;
      once = List.init (Profiler.Pet.size pet) (fun id -> naive (Profiler.Pet.node pet id))
      && counts () = once)

(* ---- report format ---- *)

let test_report_format () =
  let r = Helpers.profile Helpers.fig27 in
  let s = Profiler.Serial.report r in
  Alcotest.(check bool) "BGN loop line" true
    (Astring_contains.contains s "1:4 BGN loop");
  Alcotest.(check bool) "END with iteration count" true
    (Astring_contains.contains s "END loop 100");
  Alcotest.(check bool) "NOM record with RAW" true
    (Astring_contains.contains s "NOM");
  Alcotest.(check bool) "INIT record" true (Astring_contains.contains s "{INIT *}")

(* ---- races (§2.3.4) ---- *)

let racy_program locked =
  (* Several increments per thread: thread termination flushes the delayed
     unlocked accesses, so a single-statement thread would never share a
     pending batch with its sibling. *)
  let open B in
  Helpers.prog_of_main ~globals:[ B.gscalar "shared" 0 ]
    [ par
        (List.init 2 (fun _ ->
             List.concat
               (List.init 3 (fun _ ->
                    if locked then
                      [ lock "m"; set "shared" (v "shared" + i 1); unlock "m" ]
                    else [ set "shared" (v "shared" + i 1) ])))) ]

let test_race_detection () =
  (* With scrambled unlocked pushes, the unlocked version must produce
     timestamp reversals on some seed; the locked version never does. *)
  let races locked seed =
    let r = Helpers.profile ~scramble_unlocked:true ~seed (racy_program locked) in
    List.length r.Profiler.Serial.races
  in
  let unlocked_total =
    List.fold_left (fun acc s -> acc + races false s) 0 [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "unlocked program exposes potential races" true
    (unlocked_total > 0);
  List.iter
    (fun s -> Alcotest.(check int) "locked program clean" 0 (races true s))
    [ 1; 2; 3; 4; 5 ]

let test_thread_ids_recorded () =
  let r = Helpers.profile (racy_program true) in
  let threads = Hashtbl.create 4 in
  Dep.Set_.iter
    (fun d _ -> Hashtbl.replace threads d.Dep.sink_thread ())
    r.Profiler.Serial.deps;
  Alcotest.(check bool) "multiple thread ids in deps" true (Hashtbl.length threads >= 2)

(* ---- parallel profiler ---- *)

let parallel_matches ~queue ~workers p =
  let serial = Helpers.profile p in
  let par =
    Profiler.Parallel.profile ~queue ~workers ~perfect:true p
  in
  Helpers.check_same_deps
    (Printf.sprintf "parallel(%d workers) differs from serial" workers)
    serial.Profiler.Serial.deps par.deps;
  Alcotest.(check int) "same access count" serial.Profiler.Serial.accesses
    par.accesses

let test_parallel_equivalence () =
  List.iter
    (fun p ->
      List.iter (fun w -> parallel_matches ~queue:Profiler.Parallel.Lockfree ~workers:w p) [ 1; 2; 4 ])
    [ Helpers.fig27; Helpers.fig34 ]

let test_lock_based_equivalence () =
  parallel_matches ~queue:Profiler.Parallel.Lock_based ~workers:4 Helpers.fig27

let test_parallel_on_workload () =
  let p = Workloads.Registry.program ~size:200 (List.hd Workloads.Textbook.all) in
  parallel_matches ~queue:Profiler.Parallel.Lockfree ~workers:8 p

(* A program that raises must not leave the workers spinning: each of them
   holds a domain, and the runtime's limit (128) is process-wide, so 100
   leaking runs of 2 workers would make every later spawn fail. *)
let test_parallel_stops_workers_on_raise () =
  let oob =
    let open B in
    Helpers.prog_of_main [ decl_arr "a" (i 10); seti "a" (i 10) (i 1) ]
  in
  for _ = 1 to 100 do
    match Profiler.Parallel.profile ~workers:2 oob with
    | _ -> Alcotest.fail "expected Runtime_error"
    | exception Interp.Runtime_error _ -> ()
  done;
  let r = Profiler.Parallel.profile ~workers:2 Helpers.fig27 in
  Alcotest.(check bool) "a later profile runs" true
    (r.accesses > 0)

let test_parallel_hot_scalar () =
  (* A skewed stream: 3000 iterations on one global scalar, so the worker
     owning its address takes most of the accesses and others get none. The
     result must still equal the serial one. *)
  let p =
    let open B in
    Helpers.prog_of_main ~globals:[ B.gscalar "hot" 0 ]
      [ for_ "k" (i 0) (i 3000) [ set "hot" (v "hot" + i 1) ] ]
  in
  parallel_matches ~queue:Profiler.Parallel.Lockfree ~workers:4 p

let qcheck_parallel_equivalence =
  let open QCheck in
  Test.make ~name:"parallel profiler equals serial on random programs"
    ~count:40 Helpers.Gen.arbitrary_program (fun p ->
      let serial = Helpers.profile p in
      let par = Profiler.Parallel.profile ~workers:3 ~perfect:true p in
      let fpr, fnr =
        Dep.Set_.accuracy ~truth:serial.Profiler.Serial.deps
          ~got:par.deps
      in
      fpr = 0.0 && fnr = 0.0)

(* ---- dependence files ---- *)

let test_depfile_roundtrip () =
  let r = Helpers.profile Helpers.fig27 in
  let rendered = Profiler.Depfile.render r.Profiler.Serial.deps in
  let parsed = Profiler.Depfile.parse rendered in
  Helpers.check_same_deps "depfile round trip" r.Profiler.Serial.deps parsed;
  Alcotest.(check int) "occurrences preserved"
    (Dep.Set_.occurrences r.Profiler.Serial.deps)
    (Dep.Set_.occurrences parsed);
  let s = Profiler.Depfile.measure r.Profiler.Serial.deps in
  Alcotest.(check bool) "merging shrinks the file" true
    (s.Profiler.Depfile.reduction > 5.0)

let test_depfile_disk () =
  let r = Helpers.profile Helpers.fig34 in
  let path = Filename.temp_file "discopop" ".deps" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profiler.Depfile.write path r.Profiler.Serial.deps;
      let back = Profiler.Depfile.read path in
      Helpers.check_same_deps "disk round trip" r.Profiler.Serial.deps back)

(* ---- lifetime analysis ablation ---- *)

let test_lifetime_off_creates_false_deps () =
  (* With scope recycling but lifetime analysis disabled, dead locals' stale
     shadow entries manufacture dependences between unrelated variables. *)
  let p =
    let open B in
    Helpers.prog_of_main
      [ for_ "k" (i 0) (i 10)
          [ decl "first" (v "k"); set "first" (v "first" + i 1) ];
        for_ "k" (i 0) (i 10)
          [ decl "second" (v "k"); set "second" (v "second" * i 2) ] ]
  in
  let on = Helpers.profile p in
  let off = Profiler.Serial.profile ~lifetime:false p in
  let cross deps =
    List.exists
      (fun (d, _) -> d.Dep.var = "first" && d.Dep.sink_line > 4)
      (Dep.Set_.to_list deps)
  in
  Alcotest.(check bool) "no cross-variable deps with lifetime on" false
    (cross on.Profiler.Serial.deps);
  Alcotest.(check bool) "stale deps appear with lifetime off" true
    (cross off.Profiler.Serial.deps)

(* ---- queues ---- *)

let test_spsc_queue () =
  let q = Profiler.Spsc_queue.create ~capacity:8 in
  Alcotest.(check bool) "empty" true (Profiler.Spsc_queue.is_empty q);
  for k = 1 to 8 do
    Alcotest.(check bool) "push" true (Profiler.Spsc_queue.try_push q k)
  done;
  Alcotest.(check bool) "full rejects" false (Profiler.Spsc_queue.try_push q 9);
  for k = 1 to 8 do
    Alcotest.(check (option int)) "fifo" (Some k) (Profiler.Spsc_queue.try_pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Profiler.Spsc_queue.try_pop q)

let test_spsc_cross_domain () =
  let q = Profiler.Spsc_queue.create ~capacity:16 in
  let n = 10_000 in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 and got = ref 0 in
        while !got < n do
          match Profiler.Spsc_queue.try_pop q with
          | Some x ->
              sum := !sum + x;
              incr got
          | None -> Domain.cpu_relax ()
        done;
        !sum)
  in
  for k = 1 to n do
    Profiler.Spsc_queue.push q k
  done;
  Alcotest.(check int) "all items transferred in order-preserving stream"
    (n * (n + 1) / 2)
    (Domain.join consumer)

let tests =
  [ Alcotest.test_case "Table 2.2 dependence set" `Quick test_fig27_deps;
    Alcotest.test_case "RAR ignored" `Quick test_rar_ignored;
    Alcotest.test_case "WAW and INIT" `Quick test_waw_init;
    Alcotest.test_case "runtime merging" `Quick test_merging;
    Alcotest.test_case "variable lifetime analysis" `Quick test_lifetime_analysis;
    Alcotest.test_case "loop-carried tagging" `Quick test_loop_carried_tagging;
    Alcotest.test_case "skip preserves dep sets" `Quick test_skip_preserves_deps;
    Alcotest.test_case "skip rates" `Quick test_skip_rates;
    Alcotest.test_case "Fig 2.8 skip behaviour" `Quick test_fig28_skip_table;
    Alcotest.test_case "signature accuracy vs slots" `Quick
      test_signature_accuracy_improves_with_slots;
    Alcotest.test_case "PET structure" `Quick test_pet_structure;
    Alcotest.test_case "PET merges instances" `Quick test_pet_merges_instances;
    Alcotest.test_case "PET keys lines of any size apart" `Quick
      test_pet_wide_lines;
    Alcotest.test_case "report format" `Quick test_report_format;
    Alcotest.test_case "race detection" `Quick test_race_detection;
    Alcotest.test_case "thread ids recorded" `Quick test_thread_ids_recorded;
    Alcotest.test_case "parallel == serial" `Quick test_parallel_equivalence;
    Alcotest.test_case "lock-based == serial" `Quick test_lock_based_equivalence;
    Alcotest.test_case "parallel on workload" `Quick test_parallel_on_workload;
    Alcotest.test_case "parallel hot scalar" `Quick test_parallel_hot_scalar;
    Alcotest.test_case "parallel stops workers on raise" `Quick
      test_parallel_stops_workers_on_raise;
    Alcotest.test_case "depfile round trip" `Quick test_depfile_roundtrip;
    Alcotest.test_case "depfile on disk" `Quick test_depfile_disk;
    Alcotest.test_case "lifetime ablation" `Quick test_lifetime_off_creates_false_deps;
    Alcotest.test_case "SPSC queue" `Quick test_spsc_queue;
    Alcotest.test_case "SPSC cross-domain" `Quick test_spsc_cross_domain;
    QCheck_alcotest.to_alcotest qcheck_attach_deps_sweep;
    QCheck_alcotest.to_alcotest qcheck_skip_equivalence;
    QCheck_alcotest.to_alcotest qcheck_parallel_equivalence ]

(* ---- additional coverage ---- *)

let test_report_threads_mode () =
  let r = Helpers.profile (racy_program true) in
  let s = Profiler.Serial.report ~threads:true r in
  (* sinks carry thread ids in the |thread form (Fig 2.3) *)
  Alcotest.(check bool) "threaded sink form" true
    (Astring_contains.contains s "|1 NOM" || Astring_contains.contains s "|2 NOM")

let test_depfile_rejects_garbage () =
  Alcotest.check_raises "malformed line"
    (Profiler.Depfile.Parse_error "Depfile: malformed line: D oops") (fun () ->
      ignore (Profiler.Depfile.parse "D oops"))

let test_pet_to_string () =
  let r = Helpers.profile Helpers.fig27 in
  let s = Profiler.Pet.to_string r.Profiler.Serial.pet in
  Alcotest.(check bool) "func line" true (Astring_contains.contains s "func main");
  Alcotest.(check bool) "loop with iterations" true
    (Astring_contains.contains s "100 iterations")

let test_engine_word_footprint_grows () =
  let small = Helpers.profile ~shadow:(Profiler.Engine.Signature 100) Helpers.fig27 in
  let big = Helpers.profile ~shadow:(Profiler.Engine.Signature 100_000) Helpers.fig27 in
  Alcotest.(check bool) "footprint scales with slots" true
    (big.Profiler.Serial.footprint_words > small.Profiler.Serial.footprint_words)

(* The footprint must count everything the engine holds per static memory
   operation. Feeding one read of a fresh address at op 1000 grows the
   per-op state from 128 to 1001 ops and adds no dependence, so the
   footprint must grow by exactly what [Obj.reachable_words] sees the
   engine gain, and that is 873 ops of 6 fingerprint words and 7 dedup
   slots (an array element, a 9-word record, a 2-word count cell). *)
let test_engine_word_footprint_counts_ops () =
  let module E = Profiler.Engine in
  let lstacks = Trace.Intern.Lstack.create () in
  let e = E.create ~lstacks E.Perfect in
  let f0 = E.word_footprint e and r0 = Obj.reachable_words (Obj.repr e) in
  E.feed_fields e ~kind:Trace.Event.Read ~addr:7
    ~var:(Trace.Intern.Sym.intern "x") ~line:3 ~thread:0 ~time:1 ~op:1000
    ~lstack:Trace.Intern.Lstack.empty ~locked:false;
  let f1 = E.word_footprint e and r1 = Obj.reachable_words (Obj.repr e) in
  Alcotest.(check int) "no dependence yet" 0 (Dep.Set_.cardinal (E.deps e));
  Alcotest.(check int) "footprint growth is what the heap gained" (r1 - r0)
    (f1 - f0);
  Alcotest.(check int) "90 words per op" (873 * (6 + (7 * (1 + 9 + 2))))
    (f1 - f0);
  (* a fresh engine already holds 128 ops and the 3 x 4096-word carrier
     memo, besides Perfect's 1024 slot pairs of 12 words each *)
  Alcotest.(check bool) "memo and initial ops counted" true
    (f0 >= (1024 * 12) + (128 * 90) + (3 * 4096))

(* A negative address is rejected before the access counts: the engine's
   state is as it was. *)
let test_engine_negative_address () =
  let module E = Profiler.Engine in
  let e = E.create ~lstacks:(Trace.Intern.Lstack.create ()) E.Perfect in
  let feed kind addr time =
    E.feed_fields e ~kind ~addr ~var:(Trace.Intern.Sym.intern "x")
      ~line:(3 + time) ~thread:0 ~time ~op:time
      ~lstack:Trace.Intern.Lstack.empty ~locked:false
  in
  feed Trace.Event.Write 5 1;
  feed Trace.Event.Read 5 2;
  let deps () = Dep.Set_.to_list (E.deps e) in
  let before = deps () in
  Alcotest.(check bool) "raises Invalid_argument" true
    (match feed Trace.Event.Write (-1) 3 with
     | () -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check int) "processed unchanged" 2 (E.processed e);
  Alcotest.(check bool) "deps unchanged" true (deps () = before)

(* ---- raw-stream metamorphic test: Perfect's growth is invisible ----

   The perfect table grows when an access lands past its end, and must
   carry every live pair across. Relabelling addresses by a bijection
   leaves the engine's state unchanged (it compares addresses only for
   equality), so a stream and its relabelling must give the same
   dependences with counts and first-witness provenance, the same skip
   counters and the same races. Swapping the first-touched address with
   the highest one makes the relabelled run grow its table once, on its
   first access, before any live state; the original grows wherever the
   stream first reaches past the end. The generated streams reach what
   programs rarely do: op ids past the initial 128 (per-op growth),
   addresses past the table's initial 1024 pairs, removals of present and
   absent addresses, also past the table's end, and timestamps that run
   backwards (the race flag). *)

type raw_event =
  | Acc of {
      write : bool;
      addr : int;
      var : int;  (* index into [raw_vars] *)
      line : int;
      thread : int;
      dt : int;  (* timestamp step; <= 0 runs time backwards *)
      op : int;
      ls : int;  (* index into [raw_stacks] *)
    }
  | Rem of int

let raw_vars = Array.map Trace.Intern.Sym.intern [| "a"; "b"; "c"; "d" |]

(* One table for every stream: the empty stack, four iterations of a loop at
   line 10, and two iterations of a loop at line 20 inside each. *)
let raw_lstacks, raw_stacks =
  let module L = Trace.Intern.Lstack in
  let t = L.create () in
  let pool = ref [ L.empty ] in
  for iter = 0 to 3 do
    let outer = L.push t ~parent:L.empty ~loop_line:10 ~inst:0 ~iter in
    pool := outer :: !pool;
    for j = 0 to 1 do
      pool := L.push t ~parent:outer ~loop_line:20 ~inst:iter ~iter:j :: !pool
    done
  done;
  (t, Array.of_list !pool)

let gen_raw_stream =
  let open QCheck.Gen in
  let acc addr =
    map
      (fun (write, addr, (var, line, thread), (dt, op, ls)) ->
        Acc { write; addr; var; line; thread; dt; op; ls })
      (quad bool addr
         (triple (int_bound 3) (int_range 1 30) (int_bound 1))
         (triple
            (frequency [ (9, return 1); (1, int_range (-3) 0) ])
            (frequency [ (4, int_bound 20); (1, int_range 100 300) ])
            (int_bound (Array.length raw_stacks - 1))))
  in
  let low = int_bound 60 in
  oneofl [ `Narrow; `Wide; `Grow ] >>= function
  | `Grow ->
      (* live state at low addresses, removals of some of it and of
         addresses past the table's end, then first touches of 5 000 and
         20 000: two growths, each carrying live pairs across *)
      list_size (int_range 1 200) (acc low) >>= fun before ->
      list_size (int_range 1 20)
        (map (fun a -> Rem a) (oneof [ low; int_range 1024 30_000 ]))
      >>= fun rems ->
      acc (return 5_000) >>= fun t1 ->
      list_size (int_range 1 100) (acc low) >>= fun mid ->
      acc (return 20_000) >>= fun t2 ->
      list_size (int_range 1 200)
        (acc (oneof [ low; return 5_000; return 20_000 ]))
      >|= fun after -> before @ rems @ (t1 :: mid) @ (t2 :: after)
  | (`Narrow | `Wide) as shape ->
      let wide = shape = `Wide in
      let span = if wide then 3000 else 40 in
      (* wide streams first touch 1000 addresses, up to 2997: past the
         table's initial 1024 pairs *)
      let prefix =
        if wide then
          List.init 1000 (fun a ->
              Acc { write = true; addr = 3 * a; var = 0; line = 1; thread = 0;
                    dt = 1; op = 0; ls = 0 })
        else []
      in
      list_size
        (if wide then int_range 200 1500 else int_range 1 300)
        (frequency
           [ (12, acc (int_bound span));
             (* past [span]: removals of absent addresses *)
             (1, map (fun a -> Rem a) (int_bound (span + span / 4))) ])
      >|= fun evs -> prefix @ evs

let run_raw shadow ~skip stream =
  let module E = Profiler.Engine in
  let e = E.create ~skip ~lstacks:raw_lstacks shadow in
  let time = ref 0 in
  List.iter
    (function
      | Rem addr -> E.feed_dealloc e [ (addr, 1, "") ]
      | Acc a ->
          time := max 1 (!time + a.dt);
          E.feed_fields e
            ~kind:(if a.write then Trace.Event.Write else Trace.Event.Read)
            ~addr:a.addr ~var:raw_vars.(a.var) ~line:a.line ~thread:a.thread
            ~time:!time ~op:a.op ~lstack:raw_stacks.(a.ls) ~locked:false)
    stream;
  e

(* [stream] with its first-touched address and its highest address
   swapped. *)
let swap_first_and_highest stream =
  let addr_of = function Acc a -> a.addr | Rem a -> a in
  let first =
    List.find_map (function Acc a -> Some a.addr | Rem _ -> None) stream
  in
  match first with
  | None -> stream
  | Some first ->
      let hi = List.fold_left (fun m ev -> max m (addr_of ev)) 0 stream in
      let swap a = if a = first then hi else if a = hi then first else a in
      List.map
        (function
          | Acc a -> Acc { a with addr = swap a.addr } | Rem a -> Rem (swap a))
        stream

let qcheck_raw_perfect_growth =
  let open QCheck in
  Test.make ~name:"Perfect engine state is independent of growth timing"
    ~count:100
    (make
       ~print:(fun l -> Printf.sprintf "%d events" (List.length l))
       ~shrink:Shrink.list gen_raw_stream)
    (fun stream ->
      List.for_all
        (fun skip ->
          let module E = Profiler.Engine in
          let p = run_raw E.Perfect ~skip stream in
          let g = run_raw E.Perfect ~skip (swap_first_and_highest stream) in
          let dp = E.deps p and dg = E.deps g in
          Dep.Set_.to_list dp = Dep.Set_.to_list dg
          && Dep.Set_.occurrences dp = Dep.Set_.occurrences dg
          && List.for_all
               (fun (d, _) -> Dep.Set_.prov dp d = Dep.Set_.prov dg d)
               (Dep.Set_.to_list dp)
          && E.skip_stats p = E.skip_stats g
          && E.races p = E.races g
          && E.processed p = E.processed g)
        [ false; true ])

let tests =
  tests
  @ [ Alcotest.test_case "report threads mode" `Quick test_report_threads_mode;
      Alcotest.test_case "depfile rejects garbage" `Quick test_depfile_rejects_garbage;
      Alcotest.test_case "PET rendering" `Quick test_pet_to_string;
      Alcotest.test_case "footprint scales" `Quick test_engine_word_footprint_grows;
      Alcotest.test_case "footprint counts per-op state" `Quick
        test_engine_word_footprint_counts_ops;
      Alcotest.test_case "negative address rejected" `Quick
        test_engine_negative_address;
      QCheck_alcotest.to_alcotest qcheck_raw_perfect_growth ]

(* ---- final property batch ---- *)

let qcheck_huge_signature_matches_perfect =
  let open QCheck in
  Test.make ~name:"a huge signature is occurrence-indistinguishable from exact"
    ~count:60 Helpers.Gen.arbitrary_program (fun p ->
      let exact = Helpers.profile ~shadow:Profiler.Engine.Perfect p in
      let sig_ =
        Helpers.profile ~shadow:(Profiler.Engine.Signature 4_000_000) p
      in
      let fpr, fnr =
        Dep.Set_.accuracy_weighted ~truth:exact.Profiler.Serial.deps
          ~got:sig_.Profiler.Serial.deps
      in
      fpr < 0.001 && fnr < 0.001)

let qcheck_report_renders =
  let open QCheck in
  Test.make ~name:"report rendering is total on random programs" ~count:80
    Helpers.Gen.arbitrary_program (fun p ->
      let r = Helpers.profile p in
      (* a program that only reads pre-initialised globals legitimately has
         an empty dependence report *)
      (String.length (Profiler.Serial.report r) > 0
      || Dep.Set_.cardinal r.Profiler.Serial.deps = 0)
      && String.length (Profiler.Pet.to_string r.Profiler.Serial.pet) > 0)

let qcheck_depfile_roundtrip_random =
  let open QCheck in
  Test.make ~name:"depfile round-trips random programs" ~count:60
    Helpers.Gen.arbitrary_program (fun p ->
      let r = Helpers.profile p in
      let back = Profiler.Depfile.parse (Profiler.Depfile.render r.Profiler.Serial.deps) in
      Dep.Set_.accuracy ~truth:r.Profiler.Serial.deps ~got:back = (0.0, 0.0)
      && Dep.Set_.occurrences back = Dep.Set_.occurrences r.Profiler.Serial.deps)

let tests =
  tests
  @ [ QCheck_alcotest.to_alcotest qcheck_huge_signature_matches_perfect;
      QCheck_alcotest.to_alcotest qcheck_report_renders;
      QCheck_alcotest.to_alcotest qcheck_depfile_roundtrip_random ]

(* ---- per-run loop-stack tables ---- *)

(* The ten registry programs with the most loop iterations; every iteration
   is one loop-stack node. *)
let loopy =
  [ "water-nsq"; "bzip2"; "kmeans"; "kmeans-par"; "FT"; "swaptions";
    "mandelbrot"; "MG"; "jacobi"; "raytrace" ]

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A profile's loop stacks die with it: a profiler that keeps them in a
   process-wide store grows by the ~270k nodes of these runs. *)
let test_lstacks_freed () =
  let run name =
    ignore (Helpers.profile (Workloads.Registry.program (Helpers.workload name)))
  in
  run "histogram";
  let before = live_words () in
  List.iter run loopy;
  let grown = live_words () - before in
  if grown >= 200_000 then
    Alcotest.failf "live words grew by %d over ten profiles" grown

(* Profiles running in two domains at once share no loop-stack state:
   each agrees with its sequential run. The [Par] programs push loop
   stacks from several fibers. The depfile's witness-domain column names
   the profiling domain, so it is blanked before comparing. *)
let without_domain depfile =
  String.split_on_char '\n' depfile
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | "D" :: _ as fields ->
             let n = List.length fields in
             String.concat " "
               (List.mapi (fun i f -> if i = n - 2 then "_" else f) fields)
         | _ -> line)
  |> String.concat "\n"

let test_concurrent_profiles () =
  let digest name =
    let r = Helpers.profile (Workloads.Registry.program (Helpers.workload name)) in
    ( without_domain (Profiler.Depfile.render r.Profiler.Serial.deps),
      Profiler.Pet.to_string r.Profiler.Serial.pet,
      r.Profiler.Serial.races )
  in
  let subsets =
    [ [ "kmeans-par"; "fmm"; "histogram" ]; [ "water-nsq"; "mandelbrot"; "FT" ] ]
  in
  let sequential = List.map (List.map digest) subsets in
  let concurrent =
    List.map (fun names -> Domain.spawn (fun () -> List.map digest names)) subsets
    |> List.map Domain.join
  in
  List.iter2
    (List.iter2 (fun (d, p, r) (d', p', r') ->
         Alcotest.(check string) "depfile" d d';
         Alcotest.(check string) "PET" p p';
         Alcotest.(check (list (triple string int int))) "races" r r'))
    sequential concurrent

(* ---- the one entry point ---- *)

let test_profile_check () =
  let check_error msg (c : Profiler.Profile.config) =
    Alcotest.(check (result reject string)) msg (Error msg)
      (Result.map ignore (Profiler.Profile.check c))
  in
  let d = Profiler.Profile.default in
  check_error "bad signature slots: 0" { d with shadow = Signature 0 };
  check_error "bad signature slots: -5" { d with shadow = Signature (-5) };
  check_error "workers must be >= 0" { d with workers = -1 };
  List.iter
    (fun (c : Profiler.Profile.config) ->
      Alcotest.(check bool) (Profiler.Profile.to_string c) true
        (Profiler.Profile.check c = Ok c))
    [ d; { shadow = Signature 1; skip = false; workers = 2 } ]

(* [Profile.run] picks the profiler and divides signature slots exactly as
   the direct calls do, and both modes fill the shared result alike. *)
let test_profile_run_dispatch () =
  let same msg (a : Profiler.Serial.result) (b : Profiler.Serial.result) =
    Alcotest.(check (list string)) (msg ^ ": deps")
      (List.sort compare (Helpers.dep_strings a.deps))
      (List.sort compare (Helpers.dep_strings b.deps));
    Alcotest.(check int) (msg ^ ": occurrences")
      (Dep.Set_.occurrences a.deps) (Dep.Set_.occurrences b.deps);
    Alcotest.(check string) (msg ^ ": PET") (Profiler.Pet.to_string a.pet)
      (Profiler.Pet.to_string b.pet);
    Alcotest.(check int) (msg ^ ": accesses") a.accesses b.accesses;
    (* counts the shadow's slots: pins how many each worker got *)
    Alcotest.(check int) (msg ^ ": footprint") a.footprint_words
      b.footprint_words;
    Alcotest.(check bool) (msg ^ ": skip stats") true
      (a.skip_stats = b.skip_stats);
    Alcotest.(check int) (msg ^ ": per_worker sums to accesses") b.accesses
      (Array.fold_left ( + ) 0 b.per_worker);
    (* no profiler moves an address between workers *)
    Alcotest.(check int) (msg ^ ": redistributions") 0 b.redistributions
  in
  let run shadow skip workers p =
    Profiler.Profile.run { Profiler.Profile.shadow; skip; workers } p
  in
  List.iter
    (fun (name, p) ->
      let serial = run (Signature 4096) false 0 p in
      same (name ^ " serial signature")
        (Profiler.Serial.profile ~shadow:(Signature 4096) p)
        serial;
      Alcotest.(check (array int)) (name ^ ": serial per_worker")
        [| serial.accesses |] serial.per_worker;
      same (name ^ " parallel perfect")
        (Profiler.Parallel.profile ~workers:2 ~perfect:true ~skip:true p)
        (run Perfect true 2 p);
      same (name ^ " parallel signature")
        (Profiler.Parallel.profile ~workers:2 ~shadow_slots:4096 p)
        (run (Signature 4096) false 2 p))
    [ ("fig27", Helpers.fig27);
      ( "kmeans-par",
        Workloads.Registry.program ~size:60 (Helpers.workload "kmeans-par") ) ]

let tests =
  tests
  @ [ Alcotest.test_case "loop stacks die with the run" `Quick test_lstacks_freed;
      Alcotest.test_case "concurrent profiles agree" `Quick
        test_concurrent_profiles;
      Alcotest.test_case "Profile.check rejects bad configs" `Quick
        test_profile_check;
      Alcotest.test_case "Profile.run dispatches as the direct calls" `Quick
        test_profile_run_dispatch ]

(* [Race] against [Engine] (perfect, skip off, lifetime on) on random
   streams whose timestamps are shuffled within a small window: every
   combination of empty, older and newer read and write slots occurs, with
   deallocations, loop-carried sources and an address past the shadow's
   initial size. Races and racy records must agree. *)
let test_race_random_streams () =
  let module E = Profiler.Engine in
  let module L = Trace.Intern.Lstack in
  let lstacks = L.create () in
  let outer = L.push lstacks ~parent:L.empty ~loop_line:10 ~inst:1 ~iter:0 in
  let stacks =
    [| L.empty; outer;
       L.push lstacks ~parent:L.empty ~loop_line:10 ~inst:1 ~iter:1;
       L.push lstacks ~parent:outer ~loop_line:20 ~inst:2 ~iter:0;
       L.push lstacks ~parent:outer ~loop_line:20 ~inst:2 ~iter:1 |]
  in
  let vars = Array.map Trace.Intern.Sym.intern [| "p"; "q"; "r" |] in
  let addrs = [| 1; 2; 3; 4; 5000 |] in
  let total_races = ref 0 in
  for seed = 1 to 40 do
    let rng = Random.State.make [| seed |] in
    let pick a = a.(Random.State.int rng (Array.length a)) in
    let engine = E.create ~skip:false ~lifetime:true ~lstacks E.Perfect in
    let race = Profiler.Race.create ~lstacks in
    for k = 1 to 400 do
      if Random.State.int rng 50 = 0 then begin
        let d = [ (pick addrs, 1 + Random.State.int rng 2, "p") ] in
        E.feed_dealloc engine d;
        Profiler.Race.feed_dealloc race d
      end
      else begin
        let kind = if Random.State.bool rng then Trace.Event.Read else Write in
        let addr = pick addrs and var = pick vars and lstack = pick stacks in
        let line = 1 + Random.State.int rng 6 in
        let thread = Random.State.int rng 3 in
        let time = max 1 ((4 * k) + Random.State.int rng 13 - 6) in
        let locked = Random.State.int rng 4 = 0 in
        E.feed_fields engine ~kind ~addr ~var ~line ~thread ~time ~op:line
          ~lstack ~locked;
        Profiler.Race.feed_fields race ~kind ~addr ~var ~line ~thread ~time
          ~op:line ~lstack ~locked
      end
    done;
    let what = Printf.sprintf "stream %d" seed in
    Alcotest.(check (list (triple string int int))) (what ^ ": races")
      (E.races engine) (Profiler.Race.races race);
    Alcotest.(check (list string)) (what ^ ": racy records")
      (Helpers.racy_records (E.deps engine))
      (Helpers.racy_records (Profiler.Race.racy race));
    total_races := !total_races + List.length (Profiler.Race.races race)
  done;
  Alcotest.(check bool) "the streams race" true (!total_races > 0)

let tests =
  tests
  @ [ Alcotest.test_case "race detector = engine on random streams" `Quick
        test_race_random_streams ]
