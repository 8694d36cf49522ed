(* Tests for dependence provenance (first witness + false-positive risk) and
   the per-domain timeline tracing behind `discopop explain` / `--trace`:
   serial and parallel profilers agree on every dependence's first witness
   timestamp, exact shadows report zero risk while signatures report a
   bounded positive one, and the exported Chrome trace round-trips through
   the bundled JSON parser with well-formed, monotone events. *)

module J = Obs.Json
module Dep = Profiler.Dep

(* Every test owns both global observability layers: start clean, leave
   clean, so tracing never leaks into the timing-sensitive tests. *)
let with_tracing f =
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset ())
    f

(* --- provenance: serial vs parallel determinism --- *)

let prov_exn deps d =
  match Dep.Set_.prov deps d with
  | Some p -> p
  | None -> Alcotest.failf "dependence %s has no provenance" (Dep.to_string d)

let check_prov_deterministic name prog =
  let serial = (Profiler.Serial.profile prog).deps in
  let par = (Profiler.Parallel.profile ~workers:3 ~perfect:true prog).deps in
  Helpers.check_same_deps (name ^ ": serial vs parallel deps") serial par;
  Dep.Set_.iter
    (fun d _ ->
      let ps = prov_exn serial d and pp = prov_exn par d in
      Alcotest.(check int)
        (Printf.sprintf "%s: first witness time of %s" name (Dep.to_string d))
        ps.Dep.first_time pp.Dep.first_time;
      (* exact shadows never produce false positives *)
      Alcotest.(check (float 0.0)) "serial risk 0" 0.0 ps.Dep.risk;
      Alcotest.(check (float 0.0)) "parallel risk 0" 0.0 pp.Dep.risk)
    serial

let test_prov_deterministic () =
  check_prov_deterministic "fig27" Helpers.fig27;
  check_prov_deterministic "fig28" Helpers.fig28

let test_prov_witness_fields () =
  let deps = (Profiler.Serial.profile Helpers.fig27).deps in
  Alcotest.(check bool) "found deps" true (Dep.Set_.cardinal deps > 0);
  Dep.Set_.iter
    (fun d _ ->
      let p = prov_exn deps d in
      (* the witness is a real dynamic access: positive global timestamp,
         in-range access index *)
      Alcotest.(check bool) "time positive" true (p.Dep.first_time > 0);
      Alcotest.(check bool) "index nonneg" true (p.Dep.first_index >= 0);
      Alcotest.(check bool) "domain nonneg" true (p.Dep.witness_domain >= 0))
    deps

(* --- risk: signatures report a bounded collision proxy --- *)

let test_signature_risk_bounded () =
  let deps =
    (Profiler.Serial.profile
       ~shadow:(Profiler.Engine.Signature 64)
       Helpers.fig27)
      .deps
  in
  let max_risk = ref 0.0 in
  Dep.Set_.iter
    (fun d _ ->
      let r = Dep.Set_.risk_of deps d in
      Alcotest.(check bool) "risk in [0,1]" true (r >= 0.0 && r <= 1.0);
      if r > !max_risk then max_risk := r)
    deps;
  (* a 100-iteration loop through 64 slots must occupy some of them by the
     time the hot dependences are first witnessed *)
  Alcotest.(check bool) "some dependence carries positive risk" true
    (!max_risk > 0.0)

let test_ranked_order () =
  let deps = (Profiler.Serial.profile Helpers.fig27).deps in
  let ranked = Dep.Set_.to_ranked deps in
  Alcotest.(check int) "one row per record" (Dep.Set_.cardinal deps)
    (List.length ranked);
  let rec check = function
    | (_, c1, _) :: ((_, c2, _) :: _ as rest) ->
        Alcotest.(check bool) "counts descend" true (c1 >= c2);
        check rest
    | _ -> ()
  in
  check ranked

let test_render_explain () =
  let deps = (Profiler.Serial.profile Helpers.fig27).deps in
  let table = Profiler.Report.render_explain ~top:3 deps in
  Alcotest.(check bool) "has header" true
    (String.length table > 0 && table.[0] = '#');
  let lines =
    String.split_on_char '\n' table
    |> List.filter (fun l -> String.trim l <> "")
  in
  (* header + column line + 3 rows *)
  Alcotest.(check int) "top limits rows" 5 (List.length lines)

(* --- depfile v2: provenance persists across render/parse --- *)

let test_depfile_v2_roundtrip () =
  let deps =
    (Profiler.Serial.profile ~shadow:(Profiler.Engine.Signature 64)
       Helpers.fig27)
      .deps
  in
  let text = Profiler.Depfile.render deps in
  Alcotest.(check bool) "v2 header" true
    (String.length text > 17 && String.sub text 0 17 = "# discopop-deps v")
  ;
  let back = Profiler.Depfile.parse text in
  Helpers.check_same_deps "deps survive the file" deps back;
  Alcotest.(check int) "instance counts survive"
    (Dep.Set_.occurrences deps)
    (Dep.Set_.occurrences back);
  Dep.Set_.iter
    (fun d _ ->
      let p = prov_exn deps d and q = prov_exn back d in
      Alcotest.(check int)
        (Printf.sprintf "first_time of %s" (Dep.to_string d))
        p.Dep.first_time q.Dep.first_time;
      Alcotest.(check int) "first_index" p.Dep.first_index q.Dep.first_index;
      Alcotest.(check int) "domain" p.Dep.witness_domain q.Dep.witness_domain;
      (* risk is serialized with %.6g; compare loosely *)
      Alcotest.(check bool) "risk close" true
        (Float.abs (p.Dep.risk -. q.Dep.risk) < 1e-5))
    deps

let test_depfile_v1_compat () =
  let deps = (Profiler.Serial.profile Helpers.fig27).deps in
  (* strip header and the four provenance columns to reconstruct a v1 file *)
  let v1 =
    Profiler.Depfile.render deps
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line with
             | "D" :: rest when List.length rest = 13 ->
                 Some
                   ("D "
                   ^ String.concat " "
                       (List.filteri (fun k _ -> k < 9) rest))
             | _ -> Alcotest.failf "unexpected v2 line: %s" line)
    |> String.concat "\n"
  in
  let back = Profiler.Depfile.parse v1 in
  Helpers.check_same_deps "v1 lines still parse" deps back;
  Alcotest.(check int) "counts survive v1"
    (Dep.Set_.occurrences deps)
    (Dep.Set_.occurrences back);
  (* but provenance is gone: these records were never witnessed *)
  Dep.Set_.iter
    (fun d _ ->
      Alcotest.(check bool)
        (Printf.sprintf "no prov for %s" (Dep.to_string d))
        true
        (Dep.Set_.prov back d = None))
    back

(* --- tracing: export round-trips through the bundled parser --- *)

(* The export, which must pass trace-check's rules ([Obs.Trace.check]), and
   the number of tracks it holds. *)
let checked_export () =
  let doc = J.to_string (Obs.Trace.export ()) in
  match (Obs.Trace.check doc, J.of_string doc) with
  | Error msg, _ -> Alcotest.failf "trace export invalid: %s" msg
  | Ok (_, tracks), Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.List evs) -> (evs, tracks)
      | _ -> Alcotest.fail "no traceEvents list")
  | Ok _, Error msg -> Alcotest.failf "trace export unparseable: %s" msg

let events_of_export () = fst (checked_export ())

let field name ev =
  match J.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "event lacks %S" name

let str_field name ev =
  match J.get_string (field name ev) with
  | Some s -> s
  | None -> Alcotest.failf "%S not a string" name

let test_trace_roundtrip () =
  with_tracing @@ fun () ->
  Obs.Trace.set_track "test track";
  Obs.Trace.with_span "outer" (fun () -> Obs.Trace.instant "tick");
  Obs.Trace.counter "depth" 3;
  let evs, tracks = checked_export () in
  (* metadata + B + i + E + C *)
  Alcotest.(check int) "event count" 5 (List.length evs);
  let phases = List.map (fun e -> str_field "ph" e) evs in
  List.iter
    (fun ph ->
      Alcotest.(check bool) (ph ^ " present") true (List.mem ph phases))
    [ "M"; "B"; "i"; "E"; "C" ];
  (* single-domain trace: one track, so the check's per-track monotone
     timestamps are globally monotone *)
  Alcotest.(check int) "one track" 1 tracks;
  List.iter
    (fun ev ->
      ignore (str_field "name" ev);
      (match J.get_int (field "pid" ev) with
      | Some 1 -> ()
      | _ -> Alcotest.fail "pid must be 1");
      match J.get_int (field "tid" ev) with
      | Some t -> Alcotest.(check bool) "tid nonneg" true (t >= 0)
      | None -> Alcotest.fail "tid not an int")
    evs;
  (* the named track surfaces as a thread_name metadata record *)
  let meta = List.find (fun e -> str_field "ph" e = "M") evs in
  Alcotest.(check string) "metadata kind" "thread_name" (str_field "name" meta);
  match J.member "args" meta with
  | Some args ->
      Alcotest.(check string) "track name" "test track" (str_field "name" args)
  | None -> Alcotest.fail "thread_name lacks args"

let test_counter_events_carry_value () =
  with_tracing @@ fun () ->
  Obs.Trace.counter "queue.depth" 7;
  let evs = events_of_export () in
  let c = List.find (fun e -> str_field "ph" e = "C") evs in
  match J.member "args" c with
  | Some args -> (
      match J.get_int (field "value" args) with
      | Some v -> Alcotest.(check int) "counter value" 7 v
      | None -> Alcotest.fail "value not an int")
  | None -> Alcotest.fail "counter lacks args"

let test_span_emits_slices_without_stats () =
  (* Obs.Span.with_ must feed the timeline even when the metrics registry is
     off — --trace alone still yields phase slices. *)
  Obs.disable ();
  with_tracing @@ fun () ->
  Obs.Span.with_ ~phase:"solo" (fun () -> ());
  let phases =
    List.map (fun e -> str_field "ph" e) (events_of_export ())
  in
  Alcotest.(check bool) "B emitted" true (List.mem "B" phases);
  Alcotest.(check bool) "E emitted" true (List.mem "E" phases)

let test_parallel_trace_has_worker_tracks () =
  with_tracing @@ fun () ->
  let workers = 3 in
  let _ = Profiler.Parallel.profile ~workers ~perfect:true Helpers.fig27 in
  let evs = events_of_export () in
  let tracks =
    List.filter_map
      (fun e ->
        if str_field "ph" e = "M" then
          J.member "args" e |> Option.map (str_field "name")
        else None)
      evs
  in
  for i = 0 to workers - 1 do
    let name = Printf.sprintf "worker %d" i in
    Alcotest.(check bool) (name ^ " track present") true
      (List.mem name tracks)
  done;
  Alcotest.(check bool) "producer track present" true
    (List.mem "producer (main)" tracks)

let test_trace_disabled_and_reset () =
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  Obs.Trace.instant "dropped";
  Obs.Trace.counter "dropped" 1;
  Alcotest.(check int) "disabled buffers nothing" 0 (Obs.Trace.event_count ());
  with_tracing (fun () ->
      Obs.Trace.instant "kept";
      Alcotest.(check bool) "enabled buffers" true
        (Obs.Trace.event_count () > 0));
  Alcotest.(check int) "reset empties buffers" 0 (Obs.Trace.event_count ())

let tests =
  [ Alcotest.test_case "provenance deterministic serial vs parallel" `Quick
      test_prov_deterministic;
    Alcotest.test_case "witness fields well-formed" `Quick
      test_prov_witness_fields;
    Alcotest.test_case "signature risk bounded and positive" `Quick
      test_signature_risk_bounded;
    Alcotest.test_case "ranked rows ordered by count" `Quick test_ranked_order;
    Alcotest.test_case "explain table renders" `Quick test_render_explain;
    Alcotest.test_case "depfile v2 provenance roundtrip" `Quick
      test_depfile_v2_roundtrip;
    Alcotest.test_case "depfile v1 back-compat" `Quick test_depfile_v1_compat;
    Alcotest.test_case "chrome trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "counter events carry value" `Quick
      test_counter_events_carry_value;
    Alcotest.test_case "spans trace without stats" `Quick
      test_span_emits_slices_without_stats;
    Alcotest.test_case "parallel run names worker tracks" `Quick
      test_parallel_trace_has_worker_tracks;
    Alcotest.test_case "disabled is no-op, reset empties" `Quick
      test_trace_disabled_and_reset ]
