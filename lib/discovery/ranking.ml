(* Ranking of parallelization targets (§4.3) by three metrics:

   - instruction coverage: dynamic memory instructions spent in the target
     region divided by the whole program's — parallelising a region the
     program barely executes cannot pay off.
   - local speedup: the caller's bound for the suggestion's kind
     ([Suggestion.analyze_profiled]: iterations, overlappable body CUs,
     threads, task-graph width or pipeline stages, capped by the thread
     count); the ranking only clamps it.
   - CU imbalance: how unevenly the concurrently-runnable CUs are sized; a
     perfectly balanced antichain scores 0, a lopsided one approaches 1
     (Fig 4.6). Imbalanced opportunities waste the threads assigned to the
     small CUs. *)

module Dep = Profiler.Dep
module Static = Mil.Static

type score = {
  coverage : float;        (* [0, 1] *)
  local_speedup : float;   (* >= 1 *)
  imbalance : float;       (* [0, 1], lower is better *)
  combined : float;
}

(* Every metric must stay finite: a single NaN (e.g. from a degenerate
   region with no profiled instructions) would poison [combined] and, since
   NaN is incomparable, silently scramble the suggestion sort downstream.
   Non-finite inputs collapse to the metric's neutral value. *)
let clamp ~lo ~hi ~nan x =
  if Float.is_nan x then nan
  else if x < lo then lo
  else if x > hi then hi
  else x (* +/-inf fall into the lo/hi branches *)

(* The sort key for [combined]: total even if a NaN slips through — NaN
   ranks below every real score (treated as -inf). *)
let rank_key (s : score) : float =
  if Float.is_nan s.combined then neg_infinity else s.combined

(* Amdahl's whole-program gain, guarded: [coverage] in [0,1],
   [local_speedup] >= 1, so the denominator is positive unless the inputs
   were already degenerate — then fall back to the local bound itself. *)
let amdahl ~coverage ~local_speedup =
  let denom = 1.0 -. coverage +. (coverage /. local_speedup) in
  if Float.is_nan denom || denom <= 0.0 then local_speedup else 1.0 /. denom

let combine ~coverage ~local_speedup ~imbalance =
  let coverage = clamp ~lo:0.0 ~hi:1.0 ~nan:0.0 coverage in
  let local_speedup =
    clamp ~lo:1.0 ~hi:1e9 ~nan:1.0 local_speedup
  in
  let imbalance = clamp ~lo:0.0 ~hi:1.0 ~nan:0.0 imbalance in
  let combined =
    amdahl ~coverage ~local_speedup *. (1.0 -. (0.5 *. imbalance))
  in
  { coverage; local_speedup; imbalance;
    combined = clamp ~lo:0.0 ~hi:1e9 ~nan:0.0 combined }

(* Instruction coverage of a region from the PET. A region (or a whole run)
   with zero PET instructions covers nothing — the divide below must never
   see a zero or negative total. *)
let coverage_of_region (st : Static.t) (pet : Profiler.Pet.t) (rid : int) : float =
  let total = Profiler.Pet.total_instructions pet in
  if total <= 0 then 0.0
  else begin
    let r = st.regions.(rid) in
    let covered =
      match r.Static.kind with
      | Static.Rloop _ ->
          snd (Profiler.Pet.totals pet (Profiler.Pet.Lnode r.Static.first_line))
      | Static.Rfunc f -> snd (Profiler.Pet.totals pet (Profiler.Pet.Fnode f))
      | Static.Rbranch _ -> 0
    in
    clamp ~lo:0.0 ~hi:1.0 ~nan:0.0
      (float_of_int covered /. float_of_int total)
  end

(* Imbalance of the concurrently-runnable CUs: coefficient of variation of
   antichain member weights, normalised to [0, 1]. [scc] and [cadj] are the
   RAW CU graph condensed into its SCCs, which execute sequentially. *)
let imbalance_of_cus (g : Cunit.Graph.t) (scc : Cunit.Scc.result) cadj :
    float =
  let n = Cunit.Graph.size g in
  if n < 2 then 0.0
  else begin
    let weight c =
      List.fold_left
        (fun acc v -> acc + max 1 (Cunit.Graph.cu g v).Cunit.Cu.weight)
        0 scc.Cunit.Scc.components.(c)
    in
    (* Group components by depth level; each level is an antichain. *)
    let level = Array.make scc.Cunit.Scc.count 0 in
    let rec depth v =
      if level.(v) > 0 then level.(v)
      else begin
        let d = 1 + List.fold_left (fun m w -> max m (depth w)) 0 cadj.(v) in
        level.(v) <- d;
        d
      end
    in
    Array.iteri (fun v _ -> ignore (depth v)) level;
    let by_level = Hashtbl.create 8 in
    Array.iteri
      (fun v d ->
        let prev = try Hashtbl.find by_level d with Not_found -> [] in
        Hashtbl.replace by_level d (weight v :: prev))
      level;
    let worst = ref 0.0 in
    Hashtbl.iter
      (fun _ ws ->
        match ws with
        | [] | [ _ ] -> ()
        | ws ->
            let n = float_of_int (List.length ws) in
            let mean = float_of_int (List.fold_left ( + ) 0 ws) /. n in
            let var =
              List.fold_left
                (fun acc w ->
                  let d = float_of_int w -. mean in
                  acc +. (d *. d))
                0.0 ws
              /. n
            in
            let cv = if mean = 0.0 then 0.0 else sqrt var /. mean in
            (* cv of k equal weights is 0; of one-dominates-all approaches
               sqrt(k-1); normalise to [0,1]. *)
            let norm = cv /. sqrt (n -. 1.0) in
            if norm > !worst then worst := norm)
      by_level;
    min 1.0 !worst
  end

type factors = { f_coverage : float; f_imbalance : float }

let c_scored = Obs.counter "discovery.ranking.regions_scored"

let region_factors (st : Static.t) (cures : Cunit.Top_down.result)
    (deps : Dep.Set_.t) (pet : Profiler.Pet.t) (rid : int) : factors =
  Obs.Span.with_ ~phase:"discovery.ranking" @@ fun () ->
  Obs.Counter.incr c_scored;
  let cus = Cunit.Top_down.cus_of_region cures rid in
  let g = Cunit.Graph.build ~cus ~deps in
  let adj = Cunit.Graph.raw_succ g in
  let scc = Cunit.Scc.run adj in
  { f_coverage = coverage_of_region st pet rid;
    f_imbalance = imbalance_of_cus g scc (Cunit.Scc.condense adj scc) }

let to_string s =
  Printf.sprintf "coverage=%.2f local-speedup=%.2f imbalance=%.2f rank=%.3f"
    s.coverage s.local_speedup s.imbalance s.combined
