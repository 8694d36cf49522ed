(* Tests for the observability layer (lib/obs): the JSON value type
   round-trips through its own parser, disabled mode is a no-op, and the
   serial and parallel profilers publish identical deterministic counters
   for the same workload. *)

module J = Obs.Json

(* Every test owns the global registry: start clean, leave clean. *)
let fresh () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ()

let teardown () =
  Obs.disable ();
  Obs.reset ()

let with_registry f =
  fresh ();
  Fun.protect ~finally:teardown f

(* --- JSON value round-trips --- *)

let roundtrip v =
  match J.of_string (J.to_string v) with
  | Ok v' -> v'
  | Error msg -> Alcotest.failf "parse error: %s" msg

let test_json_roundtrip () =
  let cases =
    [ J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 3.5;
      J.String "plain";
      J.String "esc \" \\ \n \t quote";
      J.List [ J.Int 1; J.String "two"; J.Null ];
      J.Obj
        [ ("a", J.Int 1);
          ("nested", J.Obj [ ("b", J.List [ J.Float 0.25; J.Bool false ]) ]) ]
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check string) "roundtrip" (J.to_string v)
        (J.to_string (roundtrip v)))
    cases;
  (* pretty output parses back to the same value too *)
  let v = J.Obj [ ("xs", J.List [ J.Int 1; J.Int 2 ]); ("s", J.String "hi") ] in
  match J.of_string (J.pretty v) with
  | Ok v' -> Alcotest.(check string) "pretty" (J.to_string v) (J.to_string v')
  | Error msg -> Alcotest.failf "pretty parse error: %s" msg

let test_json_floats_stay_floats () =
  (* floats must keep a decimal marker so they re-parse as floats *)
  match roundtrip (J.Float 2.0) with
  | J.Float f -> Alcotest.(check (float 0.0)) "2.0" 2.0 f
  | _ -> Alcotest.fail "Float 2.0 did not round-trip as a float"

(* --- registry basics --- *)

let test_disabled_is_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "t.disabled" in
  Obs.Counter.add c 5;
  Obs.Gauge.set (Obs.gauge "t.disabled_g") 1.5;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0
    (Obs.gauge_value "t.disabled_g");
  with_registry @@ fun () ->
  Obs.Counter.add c 5;
  Alcotest.(check int) "counter counts when enabled" 5 (Obs.Counter.value c)

let test_span () =
  with_registry @@ fun () ->
  Obs.Span.with_ ~phase:"t.work" (fun () -> ());
  Alcotest.(check int) "span ran once" 1 (Obs.Span.calls "t.work");
  Alcotest.(check bool) "span took time" true (Obs.Span.ns "t.work" >= 0)

let test_snapshot_shape () =
  with_registry @@ fun () ->
  Obs.Counter.add (Obs.counter "t.c") 1;
  Obs.Span.with_ ~phase:"t.s" (fun () -> ());
  let snap = Obs.snapshot () in
  List.iter
    (fun section ->
      match J.member section snap with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.failf "snapshot missing %s section" section)
    [ "counters"; "gauges"; "spans"; "histograms" ];
  Alcotest.(check bool) "no meters section" true (J.member "meters" snap = None)

(* --- serial vs parallel profiler determinism --- *)

let test_serial_parallel_counters_agree () =
  with_registry @@ fun () ->
  let prog = Helpers.fig27 in
  let _ = Profiler.Serial.profile prog in
  let s_acc = Obs.counter_value "profiler.accesses" in
  let s_deps = Obs.counter_value "profiler.deps" in
  Alcotest.(check bool) "serial counted accesses" true (s_acc > 0);
  Alcotest.(check bool) "serial counted deps" true (s_deps > 0);
  Obs.reset ();
  let workers = 3 in
  let _ = Profiler.Parallel.profile ~workers ~perfect:true prog in
  Alcotest.(check int) "accesses agree" s_acc
    (Obs.counter_value "profiler.accesses");
  Alcotest.(check int) "deps agree" s_deps
    (Obs.counter_value "profiler.deps");
  (* per-worker access counters partition the total *)
  let per_worker =
    List.init workers (fun i ->
        Obs.counter_value (Printf.sprintf "profiler.worker.%d.accesses" i))
  in
  Alcotest.(check int) "worker accesses sum to total" s_acc
    (List.fold_left ( + ) 0 per_worker)

(* The parallel profiler's ledger: its exact counts agree with each other
   (every chunk shipped is consumed by one worker, no push waits twice) and
   every timed share is published. *)
let test_parallel_ledger () =
  with_registry @@ fun () ->
  let prog =
    Workloads.Registry.program ~size:20_000 (Option.get (Workloads.Catalog.find "histogram"))
  in
  List.iter
    (fun workers ->
      Obs.reset ();
      let r = Profiler.Parallel.profile ~workers ~perfect:true prog in
      let c name = Obs.counter_value ("profiler.parallel." ^ name) in
      let per_worker name =
        List.init workers (fun i -> c (Printf.sprintf "worker.%d.%s" i name))
      in
      let shipped = c "chunks_shipped" in
      Alcotest.(check bool) "several chunks" true (shipped > workers);
      Alcotest.(check int)
        (Printf.sprintf "%d workers: chunks shipped = consumed" workers)
        shipped
        (List.fold_left ( + ) 0 (per_worker "chunks"));
      Alcotest.(check bool) "pushes that waited <= chunks" true
        (c "push_waits" <= shipped);
      Alcotest.(check bool) "producer parks <= push waits" true
        (c "producer_parks" <= c "push_waits");
      Alcotest.(check bool) "producer time" true (c "producer_ns" > 0);
      Alcotest.(check bool) "engine time" true
        (List.for_all (fun ns -> ns > 0) (per_worker "engine_ns"));
      Alcotest.(check bool) "waits and merge are non-negative" true
        (List.for_all (fun v -> v >= 0)
           ([ c "push_wait_ns"; c "merge_ns"; c "pet_finish_ns"; c "minor_gcs" ]
           @ per_worker "idle_ns" @ per_worker "parks"));
      Alcotest.(check int) "worker accesses sum to total" r.accesses
        (List.fold_left ( + ) 0
           (List.init workers (fun i ->
                Obs.counter_value
                  (Printf.sprintf "profiler.worker.%d.accesses" i)))))
    [ 1; 2 ]

(* Both profilers publish the size of the run's loop-stack table: one node
   per loop iteration executed, whoever consumes the accesses. *)
let test_lstack_gauges_agree () =
  with_registry @@ fun () ->
  let prog = Helpers.fig27 in
  let _ = Profiler.Serial.profile prog in
  let nodes = Obs.gauge_value "profiler.lstack.nodes" in
  let words = Obs.gauge_value "profiler.lstack.words" in
  Alcotest.(check bool) "a node per iteration" true (nodes > 100.);
  Alcotest.(check bool) "five words per node" true (words >= 5. *. nodes);
  Obs.reset ();
  let _ = Profiler.Parallel.profile ~workers:1 ~perfect:true prog in
  Alcotest.(check (float 0.)) "parallel node count" nodes
    (Obs.gauge_value "profiler.lstack.nodes")

(* The engine counts the records neither dedup way of their operation
   held (INIT records aside). On one thread c-ray misses fewer times than
   twice its distinct records; its
   two-thread variant alternates sink threads per access, so its misses
   outnumber its records a hundredfold. *)
let test_dedup_misses () =
  with_registry @@ fun () ->
  let misses name =
    Obs.reset ();
    let w = Option.get (Workloads.Catalog.find name) in
    let r = Profiler.Serial.profile ~skip:true (Workloads.Registry.program w) in
    (Obs.counter_value "engine.dedup.misses", Profiler.Dep.Set_.cardinal r.deps)
  in
  let m, records = misses "c-ray" in
  Alcotest.(check bool)
    (Printf.sprintf "c-ray: %d misses within 2x its %d records" m records)
    true
    (m <= 2 * records);
  let m, records = misses "c-ray-par" in
  Alcotest.(check bool)
    (Printf.sprintf "c-ray-par: %d misses over 100x its %d records" m records)
    true
    (m > 100 * records)

(* The interpreter publishes its fiber counts once per run: a sequential
   program never switches; two threads switch at some statement boundaries,
   but not at all of them, since the running fiber is often drawn again.
   Disabled, the registry stays untouched. *)
let test_fiber_counters () =
  with_registry @@ fun () ->
  let run prog =
    Obs.reset ();
    let r = Mil.Interp.run ~instrument:false prog in
    let switches = Obs.counter_value "interp.fiber.switches" in
    Alcotest.(check int) "published switches" r.Mil.Interp.r_stats.switches
      switches;
    Alcotest.(check int) "published spawns" r.Mil.Interp.r_stats.spawns
      (Obs.counter_value "interp.fiber.spawns");
    (r.Mil.Interp.r_stats, switches)
  in
  let seq, switches = run Helpers.fig27 in
  Alcotest.(check int) "sequential: no switch" 0 switches;
  Alcotest.(check int) "sequential: no spawn" 0 seq.Mil.Interp.spawns;
  let two_threads =
    let open Mil.Builder in
    Helpers.prog_of_main ~globals:[ gscalar "a" 0; gscalar "b" 0 ]
      [ par
          [ [ for_ "i" (i 0) (i 50) [ set "a" (v "a" + v "i") ] ];
            [ for_ "i" (i 0) (i 50) [ set "b" (v "b" + v "i") ] ] ] ]
  in
  let par, switches = run two_threads in
  Alcotest.(check int) "two spawns" 2 par.Mil.Interp.spawns;
  Alcotest.(check bool) "some switches" true (switches > 0);
  Alcotest.(check bool) "fewer switches than statements" true
    (switches < par.Mil.Interp.statements);
  Obs.disable ();
  Obs.reset ();
  ignore (Mil.Interp.run ~instrument:false two_threads);
  Alcotest.(check int) "disabled: nothing published" 0
    (Obs.counter_value "interp.fiber.switches")

let test_reset_zeroes () =
  with_registry @@ fun () ->
  Obs.Counter.add (Obs.counter "t.r") 7;
  Obs.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.counter_value "t.r")

(* --- Prometheus text exposition --- *)

let prom_lines () =
  String.split_on_char '\n' (Obs.prometheus ())
  |> List.filter (fun l -> String.trim l <> "")

let is_comment l = String.length l > 0 && l.[0] = '#'

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "name{labels} value" or "name value"; labels may contain escaped quotes *)
let split_sample l =
  (* the value is everything after the last space outside braces — since
     label values escape newlines and the renderer never emits spaces
     after the closing brace except the single separator, the last space
     of the line delimits the value *)
  match String.rindex_opt l ' ' with
  | None -> Alcotest.failf "unsplittable sample line: %s" l
  | Some i ->
      ( String.sub l 0 i,
        String.sub l (i + 1) (String.length l - i - 1) )

let metric_name key =
  match String.index_opt key '{' with
  | None -> key
  | Some i -> String.sub key 0 i

let valid_name n =
  n <> ""
  && (match n.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

let prom_value v =
  if v = "+Inf" then infinity
  else if v = "-Inf" then neg_infinity
  else if v = "NaN" then nan
  else float_of_string v

let test_prometheus_validity () =
  with_registry @@ fun () ->
  Obs.Counter.add (Obs.counter "serve.requests.ok") 2;
  Obs.Gauge.set (Obs.gauge "9weird name-with*junk") 1.5;
  Obs.Span.with_ ~phase:"t.phase" (fun () -> ());
  let h = Obs.histogram "t.lat" in
  List.iter
    (fun ns -> Obs.Histogram.observe h ns)
    [ 1_000; 1_000; 950_000; 40_000_000; 40_000_000; 40_000_000;
      2_000_000_000 ];
  let lines = prom_lines () in
  (* every sample line is "name[{labels}] value" with a legal metric name
     and a parseable value *)
  List.iter
    (fun l ->
      if not (is_comment l) then begin
        let key, v = split_sample l in
        let n = metric_name key in
        Alcotest.(check bool) ("legal name: " ^ n) true (valid_name n);
        match prom_value v with
        | (_ : float) -> ()
        | exception _ -> Alcotest.failf "unparseable value %S in %S" v l
      end)
    lines;
  (* dotted counter sanitizes and takes the _total suffix *)
  Alcotest.(check bool) "counter rendered" true
    (List.mem "serve_requests_ok_total 2" lines);
  (* a leading digit is prefixed, junk chars become underscores *)
  Alcotest.(check bool) "digit-first gauge sanitized" true
    (List.exists (starts_with "_9weird_name_with_junk ") lines);
  (* spans render as a labelled counter family *)
  Alcotest.(check bool) "span family" true
    (List.exists
       (starts_with "discopop_span_calls_total{phase=\"t.phase\"}")
       lines);
  (* each TYPE comment precedes its family exactly once *)
  let type_lines = List.filter (starts_with "# TYPE ") lines in
  let type_names =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | _ :: _ :: n :: _ -> n
        | _ -> Alcotest.failf "bad TYPE line: %s" l)
      type_lines
  in
  Alcotest.(check int) "TYPE lines unique"
    (List.length type_names)
    (List.length (List.sort_uniq compare type_names))

let test_prometheus_histogram_contract () =
  with_registry @@ fun () ->
  let h = Obs.histogram "t.contract" in
  List.iter
    (fun ns -> Obs.Histogram.observe h ns)
    [ 500; 500; 123_456; 123_456; 123_456; 77_000_000; 900_000_000;
      900_000_000 ];
  let lines = prom_lines () in
  let bucket_lines =
    List.filter (starts_with "t_contract_seconds_bucket{le=\"") lines
  in
  Alcotest.(check bool) "has buckets" true (List.length bucket_lines >= 2);
  (* cumulativity: le boundaries strictly increase, counts never decrease *)
  let parse_bucket l =
    let key, v = split_sample l in
    let le_start = String.index key '"' + 1 in
    let le_end = String.rindex key '"' in
    ( prom_value (String.sub key le_start (le_end - le_start)),
      int_of_float (prom_value v) )
  in
  let buckets = List.map parse_bucket bucket_lines in
  let rec monotone = function
    | (le1, c1) :: ((le2, c2) :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "le increases (%g < %g)" le1 le2)
          true (le1 < le2);
        Alcotest.(check bool)
          (Printf.sprintf "count cumulative (%d <= %d)" c1 c2)
          true (c1 <= c2);
        monotone rest
    | _ -> ()
  in
  monotone buckets;
  (* the series closes at +Inf with the full count *)
  let last_le, last_count = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check bool) "+Inf closes the series" true (last_le = infinity);
  Alcotest.(check int) "+Inf holds every observation"
    (Obs.Histogram.count h) last_count;
  (* _count and _sum agree with the registry's own numbers (the JSON dump
     exports the same count; sum = mean * count by definition) *)
  let sample name =
    match List.find_opt (starts_with (name ^ " ")) lines with
    | Some l -> prom_value (snd (split_sample l))
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check int) "_count = histogram count"
    (Obs.Histogram.count h)
    (int_of_float (sample "t_contract_seconds_count"));
  let snap_count =
    let open J in
    Obs.snapshot () |> member "histograms"
    |> Fun.flip Option.bind (member "t.contract")
    |> Fun.flip Option.bind (member "count")
    |> Fun.flip Option.bind get_int
  in
  Alcotest.(check (option int)) "_count = JSON dump count"
    (Some (Obs.Histogram.count h)) snap_count;
  let expected_sum =
    Obs.Histogram.mean_ns h
    *. float_of_int (Obs.Histogram.count h) /. 1e9
  in
  let got_sum = sample "t_contract_seconds_sum" in
  Alcotest.(check bool)
    (Printf.sprintf "_sum ~ mean*count (%g vs %g)" got_sum expected_sum)
    true
    (Float.abs (got_sum -. expected_sum) <= 1e-9 +. (0.01 *. expected_sum))

let test_prometheus_label_escaping () =
  with_registry @@ fun () ->
  Obs.Span.with_ ~phase:"we\"ird\\phase\nnewline" (fun () -> ());
  let lines = prom_lines () in
  Alcotest.(check bool) "label escaped" true
    (List.exists
       (starts_with
          "discopop_span_calls_total{phase=\"we\\\"ird\\\\phase\\nnewline\"}")
       lines);
  (* no raw newline survived into any label: every line splits cleanly *)
  List.iter
    (fun l -> if not (is_comment l) then ignore (split_sample l))
    lines

(* --- flight recorder --- *)

let mk_record ?(service_ns = 1_000_000) ?(spans = []) id =
  { Obs.Flight.fr_id = id;
    fr_route = "POST /profile";
    fr_status = 200;
    fr_tier = "mem";
    fr_queue_ns = 10_000;
    fr_service_ns = service_ns;
    fr_done_at = 0.0;
    fr_spans = spans }

let test_flight_wraparound () =
  let fl =
    Obs.Flight.create ~capacity:4 ~slow_capacity:2 ~slow_threshold_s:0.5
  in
  (* one slow record early, then enough fast traffic to evict it from the
     main ring *)
  Obs.Flight.record fl (mk_record ~service_ns:1_000_000_000 "slow0");
  for i = 0 to 9 do
    Obs.Flight.record fl (mk_record (Printf.sprintf "r%d" i))
  done;
  Alcotest.(check int) "total counts every write" 11 (Obs.Flight.total fl);
  Alcotest.(check int) "one slow record" 1 (Obs.Flight.slow_total fl);
  let ids r = List.map (fun x -> x.Obs.Flight.fr_id) r in
  Alcotest.(check (list string)) "main ring keeps last 4, newest first"
    [ "r9"; "r8"; "r7"; "r6" ]
    (ids (Obs.Flight.recent fl));
  Alcotest.(check (list string)) "slow ring retains the slow request"
    [ "slow0" ]
    (ids (Obs.Flight.slow fl));
  (* find consults both rings: evicted fast records are gone, the slow one
     outlives the main window *)
  Alcotest.(check bool) "recent id found" true
    (Obs.Flight.find fl "r9" <> None);
  Alcotest.(check bool) "evicted id gone" true
    (Obs.Flight.find fl "r0" = None);
  Alcotest.(check bool) "slow id survives fast traffic" true
    (Obs.Flight.find fl "slow0" <> None)

let test_flight_concurrent_writers () =
  let fl =
    Obs.Flight.create ~capacity:128 ~slow_capacity:4 ~slow_threshold_s:1e9
  in
  let writers = 4 and per_writer = 500 in
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              Obs.Flight.record fl (mk_record (Printf.sprintf "w%d-%d" w i))
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "every write counted" (writers * per_writer)
    (Obs.Flight.total fl);
  Alcotest.(check int) "ring holds exactly capacity" 128
    (List.length (Obs.Flight.recent fl));
  Alcotest.(check int) "nothing crossed the slow threshold" 0
    (Obs.Flight.slow_total fl);
  (* each writer's last record is among the newest 128 only if its final
     writes landed late — but every retained record must be well-formed *)
  List.iter
    (fun r ->
      match Obs.Flight.record_json r with
      | Obs.Json.Obj fields ->
          Alcotest.(check bool) "record has id" true
            (List.mem_assoc "id" fields)
      | _ -> Alcotest.fail "record_json not an object")
    (Obs.Flight.recent fl)

let test_flight_chrome_trace () =
  let spans =
    [ { Obs.Trace.sp_name = "queue_wait"; sp_start_ns = 0; sp_dur_ns = 5_000;
        sp_depth = 0 };
      { Obs.Trace.sp_name = "profile"; sp_start_ns = 5_000; sp_dur_ns = 20_000;
        sp_depth = 0 } ]
  in
  let doc = Obs.Flight.chrome_trace (mk_record ~spans "rich") in
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List es) -> es
    | _ -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check int) "one event per span" 2 (List.length events);
  (* a span-less record (a shed request) still yields a valid non-empty
     document *)
  let doc = Obs.Flight.chrome_trace (mk_record "shed") in
  (match J.member "traceEvents" doc with
  | Some (J.List [ J.Obj fields ]) ->
      Alcotest.(check bool) "synthetic event has phase" true
        (List.assoc_opt "ph" fields = Some (J.String "X"))
  | _ -> Alcotest.fail "span-less record must keep traceEvents non-empty");
  match J.member "otherData" doc with
  | Some (J.Obj fields) ->
      Alcotest.(check bool) "otherData carries the trace id" true
        (List.assoc_opt "trace_id" fields = Some (J.String "shed"))
  | _ -> Alcotest.fail "no otherData"

(* --- request span trees: slices of the domain's timeline --- *)

let tree spans =
  List.map (fun (e : Obs.Trace.span) -> (e.Obs.Trace.sp_name, e.sp_depth)) spans

let test_req_collector () =
  (* a request's spans record with the registry AND tracing disabled:
     request span trees must not require global instrumentation to be on *)
  Obs.disable ();
  Obs.reset ();
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  Alcotest.(check (list reject)) "finish without start is empty" []
    (Obs.Trace.finish_request ());
  Obs.Trace.start_request ();
  Obs.Span.with_ ~phase:"outer" (fun () ->
      Obs.Span.with_ ~phase:"inner" (fun () -> ()));
  Obs.Span.with_ ~phase:"after" (fun () -> ());
  let spans = Obs.Trace.finish_request () in
  Alcotest.(check (list (pair string int))) "begin order, nesting depths"
    [ ("outer", 0); ("inner", 1); ("after", 0) ]
    (tree spans);
  List.iter
    (fun (e : Obs.Trace.span) ->
      Alcotest.(check bool) "non-negative duration" true (e.sp_dur_ns >= 0))
    spans;
  Alcotest.(check int) "tracing off: the request leaves no events" 0
    (Obs.Trace.event_count ());
  (* the registry saw none of it *)
  Alcotest.(check int) "no span registered while disabled" 0
    (Obs.Span.calls "outer");
  (* the mark is cleared: a span outside a request records nothing *)
  Obs.Span.with_ ~phase:"outside" (fun () -> ());
  Alcotest.(check int) "no mark, no events" 0 (Obs.Trace.event_count ());
  Obs.Trace.start_request ();
  Alcotest.(check (list reject)) "fresh request is empty" []
    (Obs.Trace.finish_request ())

(* The same request yields the same tree with tracing on and off; with
   tracing on its events stay on the timeline, interleaved with the
   timeline-only instants and counters the tree skips. *)
let test_req_tree_tracing_on_off () =
  Obs.disable ();
  Obs.Trace.reset ();
  let request () =
    Obs.Trace.start_request ();
    Obs.Span.with_ ~phase:"parse" (fun () -> Obs.Trace.instant "tick");
    Obs.Span.with_ ~phase:"profile" (fun () ->
        Obs.Trace.counter "depth" 2;
        Obs.Trace.with_span "chunk" (fun () ->
            Obs.Span.with_ ~phase:"engine" (fun () -> ())));
    Obs.Span.with_ ~phase:"render" (fun () -> ());
    tree (Obs.Trace.finish_request ())
  in
  Obs.Trace.disable ();
  let off = request () in
  Alcotest.(check int) "tracing off: buffer truncated" 0
    (Obs.Trace.event_count ());
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset ())
    (fun () ->
      let on = request () in
      Alcotest.(check (list (pair string int))) "same tree on and off" off on;
      Alcotest.(check (list (pair string int))) "the tree"
        [ ("parse", 0); ("profile", 0); ("chunk", 1); ("engine", 2);
          ("render", 0) ]
        on;
      (* 5 spans (10 events), one instant, one counter *)
      Alcotest.(check int) "tracing on: events kept" 12
        (Obs.Trace.event_count ());
      match Obs.Trace.check (J.to_string (Obs.Trace.export ())) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "timeline fails trace-check: %s" msg)

let tests =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float stays float" `Quick
      test_json_floats_stay_floats;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "span timing" `Quick test_span;
    Alcotest.test_case "snapshot sections" `Quick test_snapshot_shape;
    Alcotest.test_case "serial/parallel counters agree" `Quick
      test_serial_parallel_counters_agree;
    Alcotest.test_case "parallel profiler ledger" `Quick test_parallel_ledger;
    Alcotest.test_case "loop-stack gauges agree" `Quick
      test_lstack_gauges_agree;
    Alcotest.test_case "engine dedup misses" `Quick test_dedup_misses;
    Alcotest.test_case "interpreter fiber counters" `Quick test_fiber_counters;
    Alcotest.test_case "reset zeroes values" `Quick test_reset_zeroes;
    Alcotest.test_case "prometheus format validity" `Quick
      test_prometheus_validity;
    Alcotest.test_case "prometheus histogram contract" `Quick
      test_prometheus_histogram_contract;
    Alcotest.test_case "prometheus label escaping" `Quick
      test_prometheus_label_escaping;
    Alcotest.test_case "flight ring wraparound + slow retention" `Quick
      test_flight_wraparound;
    Alcotest.test_case "flight concurrent writers" `Quick
      test_flight_concurrent_writers;
    Alcotest.test_case "flight chrome trace" `Quick test_flight_chrome_trace;
    Alcotest.test_case "request span collector" `Quick test_req_collector;
    Alcotest.test_case "request span tree same with tracing on/off" `Quick
      test_req_tree_tracing_on_off ]
