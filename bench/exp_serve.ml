(* Serve daemon experiment: an in-process `discopop serve` instance under
   sustained concurrent load. A cold pass POSTs each workload once (every
   request profiles and populates the memory LRU), then M client domains
   hammer the warm daemon concurrently. The headline numbers are sustained
   requests/sec and client-observed p50/p99 latency, plus the cold-vs-warm
   p50 ratio — the whole point of a resident daemon is that repeat requests
   cost a hash and an LRU probe, not a profile. *)

let client_count =
  match Sys.getenv_opt "SERVE_BENCH_CLIENTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let requests_per_client =
  match Sys.getenv_opt "SERVE_BENCH_REQS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 50)
  | None -> 50

let post ~port ~name body =
  match Serve.Client.post ~port ~body ("/profile?name=" ^ name) with
  | Ok { Serve.Client.status = 200; _ } -> ()
  | Ok { Serve.Client.status; _ } ->
      failwith (Printf.sprintf "POST /profile (%s): status %d" name status)
  | Error msg -> failwith (Printf.sprintf "POST /profile (%s): %s" name msg)

let run () =
  Util.header "Serve daemon: sustained concurrent profiling requests";
  let t =
    Serve.start
      { Serve.default_config with
        Serve.port = 0;
        jobs = 4;
        queue_capacity = 256;
        mem_capacity = 128 }
  in
  let port = Serve.port t in
  let workloads =
    List.map
      (fun (w : Workloads.Registry.t) ->
        ( w.Workloads.Registry.name,
          Mil.Pretty.render_program (Workloads.Registry.program w) ))
      Workloads.Textbook.all
  in
  let time_one (name, body) =
    let t0 = Unix.gettimeofday () in
    post ~port ~name body;
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  (* Cold: every request profiles. *)
  let cold_ms = List.map time_one workloads |> Array.of_list in
  Array.sort compare cold_ms;
  (* Warm, sustained: M client domains, each cycling over the workloads. *)
  let wl = Array.of_list workloads in
  let t0 = Unix.gettimeofday () in
  let clients =
    List.init client_count (fun c ->
        Domain.spawn (fun () ->
            Array.init requests_per_client (fun i ->
                time_one wl.((c + i) mod Array.length wl))))
  in
  let warm_ms =
    List.concat_map (fun d -> Array.to_list (Domain.join d)) clients
    |> Array.of_list
  in
  let wall = Unix.gettimeofday () -. t0 in
  Serve.stop t;
  Array.sort compare warm_ms;
  let total = Array.length warm_ms in
  let req_per_sec = if wall > 0.0 then float_of_int total /. wall else 0.0 in
  let p50 = Util.percentile warm_ms 0.50 in
  let p99 = Util.percentile warm_ms 0.99 in
  let cold_p50 = Util.percentile cold_ms 0.50 in
  let warm_speedup = if p50 > 0.0 then cold_p50 /. p50 else 0.0 in
  Obs.Gauge.set_int (Obs.gauge "serve.bench.clients") client_count;
  Obs.Gauge.set_int (Obs.gauge "serve.bench.requests") total;
  Obs.Gauge.set (Obs.gauge "serve.bench.req_per_sec") req_per_sec;
  Obs.Gauge.set (Obs.gauge "serve.bench.p50_ms") p50;
  Obs.Gauge.set (Obs.gauge "serve.bench.p99_ms") p99;
  Obs.Gauge.set (Obs.gauge "serve.bench.cold_p50_ms") cold_p50;
  Obs.Gauge.set (Obs.gauge "serve.bench.warm_speedup") warm_speedup;
  Printf.printf
    "%d clients x %d requests over %d workloads: %.0f req/s sustained\n"
    client_count requests_per_client (Array.length wl) req_per_sec;
  Printf.printf "warm latency p50 %.3fms p99 %.3fms (client-observed)\n" p50
    p99;
  Printf.printf "cold p50 %.1fms -> warm p50 %.3fms: %.0fx from the LRU\n"
    cold_p50 p50 warm_speedup;
  Printf.printf "server-side mem hits: %d, misses: %d\n"
    (Obs.counter_value "serve.cache.mem_hit")
    (Obs.counter_value "serve.cache.miss")
