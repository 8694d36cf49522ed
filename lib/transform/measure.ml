(* Measured wall-clock speedups (see measure.mli).

   Protocol, per domain count d of the sweep:
     1. take the process's persistent pool of d executors (d > 1,
        {!Runtime.Pool.shared}), which exists before the timed region, so
        domain spawn never pollutes a measurement;
     2. [warmup] untimed runs (page-table faults, arena growth, OCaml
        code warm);
     3. [reps] timed runs; the reported wall is the MEDIAN;
     4. every run's observation (result, non-internal globals, prints) is
        compared against the first timed sequential run's — a measurement
        of a wrong answer is worthless;
     5. task/steal/busy counters are deltas over the timed reps only
        ({!Runtime.Pool.activity}); the measuring domain is the pool's
        executor 0 for the whole row, so they include its share and no
        other domain's.

   The sequential baseline is the uninstrumented {!Mil.Interp} on the
   *original* program, same warmup/reps/median policy. *)

module V = Validate

type run_stat = {
  r_domains : int;
  r_wall_s : float;
  r_speedup : float;
  r_efficiency : float;
  r_equal : bool;
  r_tasks : int;
  r_steals : int;
  r_imbalance : float;
}

type t = {
  m_name : string;
  m_domains : int;
  m_warmup : int;
  m_reps : int;
  m_seq_wall_s : float;
  m_runs : run_stat list;
  m_equal : bool;
  m_best_speedup : float;
}

let domain_counts n =
  let n = max 1 n in
  let rec powers acc d = if d >= n then List.rev acc else powers (d :: acc) (2 * d) in
  powers [] 1 @ [ n ]

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

let observe_par ?pool prog : V.observation =
  let prints = ref [] in
  let r =
    Mil.Par_eval.run ?pool ~on_print:(fun vs -> prints := vs :: !prints) prog
  in
  V.observation_of ~result:r.result ~globals:r.final_globals !prints

let time f =
  let t0 = Obs.now_ns () in
  let obs = f () in
  let dt = float_of_int (Obs.now_ns () - t0) /. 1e9 in
  (dt, obs)

let measure ?(domains = 4) ?(warmup = 1) ?(reps = 3) ~name
    ~(original : Mil.Ast.program) (transformed : Mil.Ast.program) : t =
  let reps = max 1 reps and warmup = max 0 warmup in
  (* sequential baseline *)
  let seq_run () = V.observe original in
  for _ = 1 to warmup do
    ignore (seq_run ())
  done;
  (* The first timed run's observation is the reference every parallel
     run is checked against. *)
  let wall0, seq_obs = time seq_run in
  let seq_walls =
    wall0 :: List.init (reps - 1) (fun _ -> fst (time seq_run))
  in
  let seq_wall = median seq_walls in
  let run_one d =
    let pool = if d > 1 then Some (Runtime.Pool.shared d) else None in
    (* Enrolled for the whole row: no other domain's work lands in the
       pool's stats between the two snapshots. *)
    let enrolled f =
      match pool with Some p -> Runtime.Pool.run p f | None -> f ()
    in
    enrolled @@ fun () ->
    let go () = observe_par ?pool transformed in
    let equal = ref true in
    let check obs =
      if V.diff_observations seq_obs obs <> [] then equal := false
    in
    for _ = 1 to warmup do
      check (go ())
    done;
    let snapshot () =
      match pool with Some p -> Runtime.Pool.stats p | None -> [||]
    in
    let before = snapshot () in
    let walls =
      List.init reps (fun _ ->
          let dt, obs = time go in
          check obs;
          dt)
    in
    let a = Runtime.Pool.activity ~before (snapshot ()) in
    let wall = median walls in
    let speedup = if wall > 0. then seq_wall /. wall else 0. in
    {
      r_domains = d;
      r_wall_s = wall;
      r_speedup = speedup;
      r_efficiency = speedup /. float_of_int d;
      r_equal = !equal;
      r_tasks = a.a_tasks;
      r_steals = a.a_steals;
      r_imbalance = a.a_imbalance;
    }
  in
  let runs = List.map run_one (domain_counts domains) in
  let m_equal = List.for_all (fun r -> r.r_equal) runs in
  let best = List.fold_left (fun acc r -> max acc r.r_speedup) 0.0 runs in
  List.iter
    (fun r ->
      Obs.Gauge.set
        (Obs.gauge (Printf.sprintf "measure.%s.speedup_d%d" name r.r_domains))
        r.r_speedup)
    runs;
  Obs.Gauge.set_int
    (Obs.gauge (Printf.sprintf "measure.%s.equal" name))
    (if m_equal then 1 else 0);
  {
    m_name = name;
    m_domains = domains;
    m_warmup = warmup;
    m_reps = reps;
    m_seq_wall_s = seq_wall;
    m_runs = runs;
    m_equal;
    m_best_speedup = best;
  }

let to_json (m : t) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [ ("name", String m.m_name);
      ("domains", Int m.m_domains);
      ("warmup", Int m.m_warmup);
      ("reps", Int m.m_reps);
      ("seq_wall_s", Float m.m_seq_wall_s);
      ("equal", Bool m.m_equal);
      ("best_speedup", Float m.m_best_speedup);
      ( "runs",
        List
          (List.map
             (fun r ->
               Obj
                 [ ("domains", Int r.r_domains);
                   ("wall_s", Float r.r_wall_s);
                   ("speedup", Float r.r_speedup);
                   ("efficiency", Float r.r_efficiency);
                   ("equal", Bool r.r_equal);
                   ("tasks", Int r.r_tasks);
                   ("steals", Int r.r_steals);
                   ("imbalance", Float r.r_imbalance) ])
             m.m_runs) ) ]

let table_rows (m : t) =
  List.map
    (fun r ->
      [ string_of_int r.r_domains;
        Printf.sprintf "%.2f" (r.r_wall_s *. 1e3);
        Printf.sprintf "%.2fx" r.r_speedup;
        Printf.sprintf "%.2f" r.r_efficiency;
        (if r.r_equal then "yes" else "NO");
        string_of_int r.r_tasks;
        string_of_int r.r_steals;
        Printf.sprintf "%.2f" r.r_imbalance ])
    m.m_runs

let to_string (m : t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "measured speedups for %s (sequential %.2f ms, median of %d after %d warmup):\n"
       m.m_name (m.m_seq_wall_s *. 1e3) m.m_reps m.m_warmup);
  let header =
    [ "domains"; "wall ms"; "speedup"; "efficiency"; "equal"; "tasks";
      "steals"; "imbalance" ]
  in
  let rows = header :: table_rows m in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map (fun _ -> 0) header)
      rows
  in
  List.iter
    (fun row ->
      List.iteri
        (fun i c ->
          Buffer.add_string b (Printf.sprintf "%-*s  " (List.nth widths i) c))
        row;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b
