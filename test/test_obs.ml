(* Tests for the observability layer (lib/obs): the JSON value type
   round-trips through its own parser, the JSONL export is parseable line by
   line, disabled mode is a no-op, and the serial and parallel profilers
   publish identical deterministic counters for the same workload. *)

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

let test_span_and_meter () =
  with_registry @@ fun () ->
  let m = Obs.meter "t.events" ~per:"t.work" in
  Obs.Span.with_ ~phase:"t.work" (fun () ->
      for _ = 1 to 10 do
        Obs.Meter.mark m 1
      done);
  Alcotest.(check int) "span ran once" 1 (Obs.Span.calls "t.work");
  Alcotest.(check bool) "span took time" true (Obs.Span.ns "t.work" >= 0);
  Alcotest.(check int) "meter counted" 10 (Obs.Meter.count m)

(* --- JSONL exporter --- *)

let test_jsonl_parses () =
  with_registry @@ fun () ->
  Obs.Counter.add (Obs.counter "t.c") 3;
  Obs.Gauge.set (Obs.gauge "t.g") 0.5;
  Obs.Span.with_ ~phase:"t.s" (fun () -> ());
  Obs.Meter.mark (Obs.meter "t.m" ~per:"t.s") 1;
  let lines =
    String.split_on_char '\n' (Obs.to_jsonl ())
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "has lines" true (List.length lines >= 4);
  List.iter
    (fun line ->
      match J.of_string line with
      | Ok (J.Obj fields) ->
          Alcotest.(check bool) "has kind" true (List.mem_assoc "kind" fields);
          Alcotest.(check bool) "has name" true (List.mem_assoc "name" fields)
      | Ok _ -> Alcotest.failf "JSONL line is not an object: %s" line
      | Error msg -> Alcotest.failf "JSONL line unparseable (%s): %s" msg line)
    lines;
  (* the counter's value survives the round trip *)
  let counter_line =
    List.find
      (fun l ->
        match J.of_string l with
        | Ok o ->
            J.member "kind" o = Some (J.String "counter")
            && J.member "name" o = Some (J.String "t.c")
        | Error _ -> false)
      lines
  in
  match J.of_string counter_line with
  | Ok o -> Alcotest.(check (option int)) "value" (Some 3)
              (Option.map J.get_int (J.member "value" o) |> Option.join)
  | Error _ -> assert false

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
    [ "counters"; "gauges"; "spans"; "meters" ]

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
    [ { Obs.Req.sp_name = "queue_wait"; sp_start_ns = 0; sp_dur_ns = 5_000;
        sp_depth = 0 };
      { Obs.Req.sp_name = "profile"; sp_start_ns = 5_000; sp_dur_ns = 20_000;
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

(* --- request-scoped span collection --- *)

let test_req_collector () =
  (* the collector works with the registry AND tracing disabled: request
     span trees must not require global instrumentation to be on *)
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check bool) "inactive before start" true (not (Obs.Req.active ()));
  Alcotest.(check (list reject)) "finish without start is empty" []
    (Obs.Req.finish ());
  Obs.Req.start ();
  Alcotest.(check bool) "active after start" true (Obs.Req.active ());
  Obs.Span.with_ ~phase:"outer" (fun () ->
      Obs.Span.with_ ~phase:"inner" (fun () -> ()));
  Obs.Req.add ~name:"synthetic" ~start_ns:0 ~dur_ns:42;
  let entries = Obs.Req.finish () in
  Alcotest.(check bool) "finish uninstalls" true (not (Obs.Req.active ()));
  Alcotest.(check (list string)) "chronological order"
    [ "synthetic"; "outer"; "inner" ]
    (List.map (fun (e : Obs.Req.entry) -> e.Obs.Req.sp_name) entries);
  let depth name =
    (List.find (fun (e : Obs.Req.entry) -> e.Obs.Req.sp_name = name) entries)
      .Obs.Req.sp_depth
  in
  Alcotest.(check int) "outer at depth 0" 0 (depth "outer");
  Alcotest.(check int) "inner nested at depth 1" 1 (depth "inner");
  Alcotest.(check int) "synthetic at its given depth" 0 (depth "synthetic");
  (* the registry saw none of it *)
  Alcotest.(check int) "no span registered while disabled" 0
    (Obs.Span.calls "outer");
  (* a second finish is empty: the collector does not leak across requests *)
  Obs.Req.start ();
  Alcotest.(check (list reject)) "fresh collector is empty" []
    (Obs.Req.finish ())

let tests =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float stays float" `Quick
      test_json_floats_stay_floats;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "span and meter" `Quick test_span_and_meter;
    Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_parses;
    Alcotest.test_case "snapshot sections" `Quick test_snapshot_shape;
    Alcotest.test_case "serial/parallel counters agree" `Quick
      test_serial_parallel_counters_agree;
    Alcotest.test_case "loop-stack gauges agree" `Quick
      test_lstack_gauges_agree;
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
    Alcotest.test_case "request span collector" `Quick test_req_collector ]
