(* Soak/overload experiment: sweep offered load on an in-process serve
   daemon from well below saturation to ~2x past it, and chart what the
   admission control does at each step — shed rate, served p99 and queue
   depth. This closes ROADMAP item 2's measurement ask: the numbers say
   where the daemon saturates and how it degrades (fast 429s, bounded
   queue), and the per-step data comes from the flight recorder's
   per-request records rather than client-side bookkeeping.

   Protocol:
   1. Calibrate: a few sequential uncached POSTs give the mean service
      time, so capacity ~= jobs / mean_service (the daemon runs with the
      memory LRU disabled — every request profiles, the expensive path).
   2. Sweep: for each multiple of calibrated capacity (default 0.25, 0.5,
      1.0, 1.5, 2.0), open-loop senders POST at the target rate for a
      fixed step duration. Open-loop is what makes overload visible: a
      shed answer returns in microseconds, so senders keep offering load
      past saturation instead of slowing down with the server.
   3. Report: per-step records are pulled from the flight recorder by
      completion-time window; queue depth is sampled by a poller domain.

   The daemon runs 2 jobs behind an 8-deep queue, 16 senders offer the
   load, and calibration takes 6 requests. Env knobs: SOAK_STEP_S (the
   step duration in seconds, default 2.0; CI uses a shorter step) and
   SOAK_RATES (comma-separated multiples). *)

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0.0 -> v
  | _ -> default

let jobs = 2
let queue_capacity = 8
let senders = 16
let step_s = env_float "SOAK_STEP_S" 2.0
let calib_count = 6

let rate_multiples =
  match Sys.getenv_opt "SOAK_RATES" with
  | None -> [ 0.25; 0.5; 1.0; 1.5; 2.0 ]
  | Some s -> (
      match
        String.split_on_char ',' s
        |> List.filter (fun x -> String.trim x <> "")
        |> List.map (fun x -> float_of_string_opt (String.trim x))
      with
      | [] -> [ 0.25; 0.5; 1.0; 1.5; 2.0 ]
      | parsed ->
          if List.for_all Option.is_some parsed then
            List.map Option.get parsed
          else [ 0.25; 0.5; 1.0; 1.5; 2.0 ])

(* One load step: [senders] domains offer [rate] req/s for [step_s]
   seconds, request i firing at its schedule slot (or immediately when the
   sender is behind — open loop, the backlog is not forgiven). *)
let run_step ~port ~body ~rate =
  let n = max 1 (int_of_float (rate *. step_s)) in
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init senders (fun c ->
        Domain.spawn (fun () ->
            let ok = ref 0 and shed = ref 0 and other = ref 0 in
            let i = ref c in
            while !i < n do
              let sched = t0 +. (float_of_int !i /. rate) in
              let now = Unix.gettimeofday () in
              if sched > now then Unix.sleepf (sched -. now);
              (match Serve.Client.post ~port ~body "/profile?name=soak" with
              | Ok { Serve.Client.status = 200; _ } -> incr ok
              | Ok { Serve.Client.status = 429; _ } -> incr shed
              | Ok _ | Error _ -> incr other);
              i := !i + senders
            done;
            (!ok, !shed, !other)))
  in
  let counts = List.map Domain.join doms in
  let t1 = Unix.gettimeofday () in
  let ok = List.fold_left (fun a (o, _, _) -> a + o) 0 counts in
  let shed = List.fold_left (fun a (_, s, _) -> a + s) 0 counts in
  let other = List.fold_left (fun a (_, _, x) -> a + x) 0 counts in
  (t0, t1, n, ok, shed, other)

let run () =
  Util.header "Soak: offered load sweep past saturation (shed rate vs p99)";
  let t =
    Serve.start
      { Serve.default_config with
        Serve.port = 0;
        jobs;
        queue_capacity;
        mem_capacity = 0;
        (* big enough that one sweep never wraps: every request of every
           step must still be resident for the per-window stats below *)
        flight_capacity = 65536;
        slow_capacity = 256 }
  in
  let port = Serve.port t in
  let body =
    let w =
      match
        List.find_opt
          (fun (w : Workloads.Registry.t) -> w.Workloads.Registry.name = "histogram")
          Workloads.Textbook.all
      with
      | Some w -> w
      | None -> List.hd Workloads.Textbook.all
    in
    Mil.Pretty.render_program (Workloads.Registry.program w)
  in
  (* Queue-depth poller: samples the serve.queue.depth gauge until told to
     stop; each step's maximum comes from its completion-time window. *)
  let sampling = Atomic.make true in
  let sampler =
    Domain.spawn (fun () ->
        let samples = ref [] in
        while Atomic.get sampling do
          samples :=
            (Unix.gettimeofday (), Obs.gauge_value "serve.queue.depth")
            :: !samples;
          Unix.sleepf 0.002
        done;
        !samples)
  in
  (* 1. Calibrate. *)
  let calib_ms =
    List.init calib_count (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match Serve.Client.post ~port ~body "/profile?name=soak" with
        | Ok { Serve.Client.status = 200; _ } -> ()
        | Ok { Serve.Client.status; _ } ->
            failwith (Printf.sprintf "calibration: status %d" status)
        | Error msg -> failwith ("calibration: " ^ msg));
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let mean_service_ms =
    List.fold_left ( +. ) 0.0 calib_ms /. float_of_int (List.length calib_ms)
  in
  let capacity_rps = float_of_int jobs /. (mean_service_ms /. 1e3) in
  Printf.printf
    "calibration: %d requests, mean service %.1fms -> ~%.0f req/s capacity (%d jobs)\n%!"
    calib_count mean_service_ms capacity_rps jobs;
  (* 2. Sweep. *)
  let steps =
    List.map
      (fun mult ->
        let rate = Float.max 1.0 (capacity_rps *. mult) in
        let t0, t1, n, ok, shed, other = run_step ~port ~body ~rate in
        (mult, rate, t0, t1, n, ok, shed, other))
      rate_multiples
  in
  Atomic.set sampling false;
  let depth_samples = Domain.join sampler in
  (* 3. Per-step stats from the flight recorder. *)
  let records = Obs.Flight.recent (Serve.flight t) in
  Serve.stop t;
  let g name v = Obs.Gauge.set (Obs.gauge name) v in
  Printf.printf
    "%-6s %12s %12s %10s %10s %10s %8s %8s\n"
    "mult" "offered r/s" "achieved r/s" "shed rate" "p99 ms" "queue max"
    "ok" "shed";
  let shed_rates_at_or_past_saturation = ref [] in
  List.iteri
    (fun i (mult, rate, t0, t1, _n, c_ok, c_shed, c_other) ->
      let wall = Float.max 1e-9 (t1 -. t0) in
      let in_window (r : Obs.Flight.record) =
        r.Obs.Flight.fr_done_at >= t0 && r.Obs.Flight.fr_done_at <= t1
      in
      let recs = List.filter in_window records in
      let ok_recs =
        List.filter (fun r -> r.Obs.Flight.fr_status = 200) recs
      in
      let total = List.length recs in
      (* Client-side counts are the denominator of record: the flight window
         can clip a request completing just past the step edge. *)
      let denom = max 1 (c_ok + c_shed + c_other) in
      let shed_rate = float_of_int c_shed /. float_of_int denom in
      let achieved = float_of_int total /. wall in
      let service_ms =
        ok_recs
        |> List.map (fun r -> float_of_int r.Obs.Flight.fr_service_ns /. 1e6)
        |> Array.of_list
      in
      Array.sort compare service_ms;
      let p99 = Util.percentile service_ms 0.99 in
      let depth_max =
        List.fold_left
          (fun acc (ts, d) -> if ts >= t0 && ts <= t1 then Float.max acc d else acc)
          0.0 depth_samples
      in
      if mult >= 0.999 then
        shed_rates_at_or_past_saturation :=
          shed_rate :: !shed_rates_at_or_past_saturation;
      Printf.printf "%-6.2f %12.0f %12.0f %10.2f %10.1f %10.0f %8d %8d\n"
        mult rate achieved shed_rate p99 depth_max c_ok c_shed;
      let pre = Printf.sprintf "soak.step%d." i in
      g (pre ^ "offered_rps") rate;
      g (pre ^ "achieved_rps") achieved;
      g (pre ^ "shed_rate") shed_rate;
      g (pre ^ "p99_ms") p99;
      g (pre ^ "queue_depth_max") depth_max;
      g (pre ^ "ok") (float_of_int c_ok);
      g (pre ^ "shed") (float_of_int c_shed))
    steps;
  (* Shed rate must not fall as load climbs past saturation: admission
     control that sheds *less* under *more* overload is broken. Small eps
     absorbs run-to-run noise on short CI steps. *)
  let monotonic =
    let rec check = function
      | a :: (b :: _ as rest) -> b >= a -. 0.05 && check rest
      | _ -> true
    in
    check (List.rev !shed_rates_at_or_past_saturation)
  in
  let nth_step sel =
    match sel (List.rev steps) with
    | Some (_, _, _, _, _, ok, shed, other) ->
        let denom = max 1 (ok + shed + other) in
        float_of_int shed /. float_of_int denom
    | None -> 0.0
  in
  let last = nth_step (fun l -> List.nth_opt l 0) in
  let first =
    nth_step (fun l -> List.nth_opt l (List.length l - 1))
  in
  let overload_p99 =
    Obs.gauge_value
      (Printf.sprintf "soak.step%d.p99_ms" (List.length steps - 1))
  in
  let overload_queue_max =
    Obs.gauge_value
      (Printf.sprintf "soak.step%d.queue_depth_max" (List.length steps - 1))
  in
  g "soak.steps" (float_of_int (List.length steps));
  g "soak.capacity_rps" capacity_rps;
  g "soak.service_ms" mean_service_ms;
  g "soak.shed_monotonic" (if monotonic then 1.0 else 0.0);
  g "soak.low_shed_rate" first;
  g "soak.overload_shed_rate" last;
  g "soak.overload_p99_ms" overload_p99;
  g "soak.overload_queue_depth_max" overload_queue_max;
  Printf.printf
    "shed rate %s across saturation (%.2f low-load -> %.2f at %.1fx); queue capped at %.0f\n"
    (if monotonic then "monotone" else "NON-MONOTONE")
    first last
    (List.fold_left Float.max 0.0 rate_multiples)
    overload_queue_max
