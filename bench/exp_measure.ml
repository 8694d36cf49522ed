(* Measured speedups of transformed programs on the work-stealing runtime —
   the paper's evaluation tables made real instead of modeled: each workload
   is analyzed, rewritten by lib/transform, and executed under
   Mil.Par_eval on a Runtime.Pool across a 1..N domain sweep
   (Transform.Measure), with every parallel run checked for observational
   equality against the sequential original.

   Alongside the per-workload tables, the experiment correlates the
   critical-path *proxy* speedup (Validate.measure, one of the three
   speedup estimators; the ranking orders suggestions by a per-kind bound
   instead) with the speedup actually measured at the maximum domain
   count: Spearman's rank correlation, published as the
   measure.proxy_rank_corr gauge. A proxy that ranks workloads in a
   different order than the hardware does is a mis-ranking bug the modeled
   numbers alone cannot expose.

   MEASURE_WORKLOADS=name,name,... restricts the sweep (CI's measure-smoke
   runs a subset); MEASURE_DOMAINS=N caps the domain sweep (default 4).
   Note: on a single-core host the parallel runs time-slice one CPU, so
   measured speedups below 1x are expected — the equality checks and
   correlation still exercise the full runtime path. *)

module P = Transform.Parallelize
module V = Transform.Validate
module M = Transform.Measure
module R = Workloads.Registry
module S = Discovery.Suggestion

(* DOALL-rich workloads plus one fork-join decomposition (fib); all
   transformable by apply_first. *)
let sample_default =
  [ "histogram"; "mandelbrot"; "matmul"; "dotprod"; "jacobi"; "match_count";
    "fib" ]

(* Spearman's rank correlation, with ties given their average rank. *)
let ranks (xs : float array) =
  let n = Array.length xs in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  let rx = ranks xs and ry = ranks ys in
  let n = float_of_int (Array.length xs) in
  if n < 2.0 then 0.0
  else begin
    let mean a = Array.fold_left ( +. ) 0.0 a /. n in
    let mx = mean rx and my = mean ry in
    let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let dx = x -. mx and dy = ry.(i) -. my in
        cov := !cov +. (dx *. dy);
        vx := !vx +. (dx *. dx);
        vy := !vy +. (dy *. dy))
      rx;
    if !vx <= 0.0 || !vy <= 0.0 then 0.0
    else !cov /. sqrt (!vx *. !vy)
  end

let run () =
  Util.header "Measured speedups on the work-stealing runtime";
  let domains =
    match Sys.getenv_opt "MEASURE_DOMAINS" with
    | Some s -> ( match int_of_string_opt s with Some d -> max 1 d | None -> 4)
    | None -> 4
  in
  Printf.printf "  (domain sweep up to %d; host has %d cores)\n" domains
    (Domain.recommended_domain_count ());
  let results =
    List.filter_map
      (fun (w : R.t) ->
        let name = w.name in
        let prog = R.program w in
        let report = S.analyze ~threads:domains prog in
        match P.apply_first ~chunks:domains report with
        | Error skipped ->
            Printf.printf "  (measure: %s not transformable: %s)\n" name
              (match skipped with
              | (_, reason) :: _ -> reason
              | [] -> "no suggestions");
            None
        | Ok (t, _) ->
            let proxy = V.measure ~label:name ~original:t.P.original t.P.transformed in
            let m =
              M.measure ~domains ~warmup:1 ~reps:3 ~name
                ~original:t.P.original t.P.transformed
            in
            print_newline ();
            print_string (M.to_string m);
            Some (name, proxy.V.d_measured_speedup, m))
      (Util.env_list "MEASURE_WORKLOADS" ~default:sample_default
         ~find:Workloads.Catalog.find
         ~unknown:(Printf.sprintf "  (measure: unknown workload %s, skipped)"))
  in
  let max_d_speedup (m : M.t) =
    match List.rev m.M.m_runs with
    | last :: _ -> last.M.r_speedup
    | [] -> 0.0
  in
  print_newline ();
  Util.table
    ~columns:[ "program"; "proxy"; "best"; "at max d"; "equal" ]
    (List.map
       (fun (name, proxy, m) ->
         [ name;
           Printf.sprintf "%.2fx" proxy;
           Printf.sprintf "%.2fx" m.M.m_best_speedup;
           Printf.sprintf "%.2fx" (max_d_speedup m);
           (if m.M.m_equal then "yes" else "NO") ])
       results);
  let n = List.length results in
  let equal_count =
    List.length (List.filter (fun (_, _, m) -> m.M.m_equal) results)
  in
  let corr =
    spearman
      (Array.of_list (List.map (fun (_, p, _) -> p) results))
      (Array.of_list (List.map (fun (_, _, m) -> max_d_speedup m) results))
  in
  Obs.Gauge.set_int (Obs.gauge "measure.workloads") n;
  Obs.Gauge.set_int (Obs.gauge "measure.equal_count") equal_count;
  Obs.Gauge.set (Obs.gauge "measure.proxy_rank_corr") corr;
  Printf.printf
    "\n%d/%d workloads observationally equal across the sweep;\n\
     Spearman(proxy rank, measured rank at d=%d) = %.2f\n"
    equal_count n domains corr;
  print_endline
    "proxy vs measured disagreements are expected to stay small: the proxy\n\
     counts critical-path accesses, the measurement pays runtime overheads\n\
     (task spawning, stealing, atomics) the model does not see."
