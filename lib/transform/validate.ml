(* Differential validation of transformed programs (the check the paper ran
   by hand: parallelize the suggestion, then make sure the program still
   computes the same thing — and actually distributes work).

   Three layers, all over the MIL interpreter:

   1. State equivalence: run original and transformed under several
      scheduler seeds and compare the observable state — entry return
      value, final values of the original program's globals, and the
      [print] output stream. The first seed's run of a threaded program is
      its race run (below); a seed-free original runs once, and so does a
      schedule-determinate transform whose race run, made without
      preemption, is race-free (below).
   2. Race check: run both programs, the original only if it has [Par],
      instrumented into a happens-before detector, and require the
      transformed program to introduce no *new* racy variables — in
      particular no unsynchronized cross-chunk RAW on transformed DOALL
      regions. Happens-before sees every pair of conflicting accesses the
      run's forks, joins, locks, barriers and atomics leave unordered,
      whatever the interleaving, so one run per program decides. Variables
      introduced by the transform itself (the "__" namespace) only count if
      actually racy; original-program lines moved by renumbering are
      compared by variable, which renumbering preserves.
   3. Work distribution: count profiled accesses per thread of the
      transformed run, giving a measured speedup proxy (total work over
      the critical chunk) to place next to the modeled Schedule speedup.

   The one-run argument also covers state equivalence for a
   schedule-determinate program: one that calls neither [rand] nor
   [print] and contains no [Lock], [Unlock], [Barrier], [Atomic_assign]
   or [Free].
   - In [Interp], the seed reaches a run only through the PRNG: the
     scheduler's draws and [rand].
   - Without the constructs above, its threads meet only at [Par]'s fork
     and join, so a seed changes only the interleaving of their
     statements.
   - A fork-join run with no determinacy race reads the same write at
     every read under every interleaving (Feng & Leiserson, SPAA 1997),
     so it ends in the same state. Happens-before reports a race of the
     executed trace whatever the interleaving, so one race-free run
     stands for every seed. The run need not be a seeded one: the serial
     elision, each thread run until it forks or ends, is an interleaving
     too, and the cheapest, with no fiber switch ([Interp.run
     ~preempt:false]).
   - Memory a thread allocates does not carry an earlier owner's values:
     [Compile.alloc] zeroes recycled cells, and no thread outlives the
     scope of a local it can reach. [Free] is excluded because
     [Happens_before.feed_dealloc] forgets a freed range instead of
     treating the free as a write, so an access through a stale name
     would go unseen.
   If that run reports any race, internal "__" names included, or raises,
   the argument does not apply: it is discarded, and the seeded race run
   and the per-seed runs follow as for any other transform. *)

module Interp = Mil.Interp

let c_pass = Obs.counter "transform.validate.pass"
let c_fail = Obs.counter "transform.validate.fail"
let c_runs = Obs.counter "transform.validate.runs"
let c_decided = Obs.counter "transform.validate.decided"
let c_cooperative = Obs.counter "transform.validate.cooperative"

let is_internal name = String.length name >= 2 && String.sub name 0 2 = "__"

type observation = {
  o_result : int;
  o_globals : (string * int array) list;  (* transform-internal "__" globals excluded *)
  o_prints : int list list;
}

(* [prints] in reverse order, as the [on_print] callbacks collect them. *)
let observation_of ~result ~globals prints =
  { o_result = result;
    o_globals = List.filter (fun (n, _) -> not (is_internal n)) globals;
    o_prints = List.rev prints }

let observe ?seed (prog : Mil.Ast.program) : observation =
  let prints = ref [] in
  let r =
    Interp.run ?seed ~instrument:false
      ~on_print:(fun vs -> prints := vs :: !prints)
      prog
  in
  observation_of ~result:r.result ~globals:r.final_globals !prints

(* The seed reaches a run only through the scheduler's PRNG: its draws and
   the scrambler's happen only while more than one thread is live, and
   [rand] draws from it. A program without [Par] and without a call to
   [rand] therefore observes the same at every seed. *)
let seed_free (prog : Mil.Ast.program) =
  (not (Mil.Rewrite.has_par prog))
  && not
       (List.exists
          (fun (f : Mil.Ast.func) ->
            List.exists Mil.Ast.draws (Mil.Rewrite.block_calls f.body))
          prog.funcs)

(* See the header: such a program's race-free run observes what every
   seed's run would. *)
let schedule_determinate (prog : Mil.Ast.program) =
  List.for_all
    (fun (f : Mil.Ast.func) ->
      (not
         (List.exists
            (fun c -> Mil.Ast.draws c || Mil.Ast.prints c)
            (Mil.Rewrite.block_calls f.body)))
      && not
           (Mil.Ast.exists_block
              (fun (s : Mil.Ast.stmt) ->
                Mil.Ast.is_sync s
                ||
                match s.node with Atomic_assign _ | Free _ -> true | _ -> false)
              f.body))
    prog.funcs

let diff_observations (a : observation) (b : observation) : string list =
  let issues = ref [] in
  if a.o_result <> b.o_result then
    issues :=
      Printf.sprintf "result %d <> %d" a.o_result b.o_result :: !issues;
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name b.o_globals with
      | None -> issues := Printf.sprintf "global %s missing" name :: !issues
      | Some vb ->
          if va <> vb then
            issues := Printf.sprintf "global %s differs" name :: !issues)
    a.o_globals;
  if a.o_prints <> b.o_prints then issues := "print stream differs" :: !issues;
  List.rev !issues

(* Racy variables: names in a race list. Comparing by name survives the
   transform's renumbering. *)
let racy_names races =
  List.sort_uniq compare (List.map (fun (v, _, _) -> v) races)

(* A race run: the program instrumented at [seed] into a happens-before
   detector, preempted at statements unless [preempt] is false. Its result
   and prints are also the program's observation at [seed]. *)
type race_run = {
  observation : observation;
  racy : string list;
  racy_raw : int;
}

let race_run ?preempt ~seed prog =
  let prints = ref [] in
  let hb, r =
    Profiler.Happens_before.run ~seed ?preempt
      ~on_print:(fun vs -> prints := vs :: !prints)
      prog
  in
  { observation =
      observation_of ~result:r.result ~globals:r.final_globals !prints;
    racy = racy_names (Profiler.Happens_before.races hb);
    racy_raw = Profiler.Happens_before.racy_raw hb }

type verdict = {
  v_ok : bool;
  v_seeds : int list;
  v_mismatches : (int * string) list;  (* (seed, issue) *)
  v_new_racy : string list;            (* racy vars only in the transformed run *)
  v_racy_raw : int;                    (* racy RAW records in the transformed run *)
}

let default_seeds = [ 42; 1009; 77777 ]

(* Where one seed's observation of one program comes from. *)
type source =
  | Race_run  (* the program's race run, at the first seed *)
  | Task of observation Runtime.Pool.future
  | Undecided (* the race run's if it is race-free, else a task *)

(* Each program runs as few times as the verdict needs. The race run at
   the first seed is also that seed's observation of the transformed
   program, and of an original with [Par]; an original without [Par] is
   not race-run, since one thread's accesses are all ordered and nothing
   in it can be racy. A seed-free original is observed once for every
   seed, and a schedule-determinate transform's race-free race run stands
   for its later seeds.

   Every other observation is one task of the shared pool, submitted
   before the caller, its executor 0, runs the race runs; the caller then
   awaits them help-first, taking what the other executor has not
   started, and with one executor runs them all inline. Every run is
   deterministic given its seed, so the verdict does not depend on which
   domain runs what. *)
let differential ?(seeds = default_seeds) ~(original : Mil.Ast.program)
    ~(transformed : Mil.Ast.program) () : verdict =
  let seed0 =
    match seeds with s :: _ -> s | [] -> Mil.Compile.Rng.default_seed
  in
  let race_original = Mil.Rewrite.has_par original in
  let once_for_all = seed_free original in
  let determinate = schedule_determinate transformed in
  let pool =
    Runtime.Pool.shared (min 2 (Domain.recommended_domain_count ()))
  in
  Runtime.Pool.run pool @@ fun () ->
  let runs = ref 0 and decided = ref 0 and cooperative = ref 0 in
  let submit ?seed prog =
    incr runs;
    Task
      ( Runtime.Pool.async pool @@ fun () ->
        Obs.Span.with_ ~phase:"validate.observe" @@ fun () ->
        observe ?seed prog )
  in
  let once = lazy (submit original) in
  let plain =
    List.map
      (fun seed ->
        let first = seed = seed0 in
        ( seed,
          (if first && race_original then Race_run
           else if once_for_all then Lazy.force once
           else submit ~seed original),
          if first then Race_run
          else if determinate then Undecided
          else submit ~seed transformed ))
      seeds
  in
  let race_run ?preempt prog =
    incr runs;
    race_run ?preempt ~seed:seed0 prog
  in
  (* Only the observations and race summaries outlive the race check, not
     the detectors. A schedule-determinate transform is race-run without
     preemption first; a race in that run, or its failure, discards it for
     the seeded race run any other transform gets. *)
  let race_check () =
    Obs.Span.with_ ~phase:"validate.race_check" @@ fun () ->
    let orig_obs, base =
      if race_original then
        let o = race_run original in
        (Some o.observation, o.racy)
      else (None, [])
    in
    let seeded () = race_run transformed in
    let t =
      if not determinate then seeded ()
      else begin
        incr cooperative;
        match race_run ~preempt:false transformed with
        | { racy = []; _ } as t -> t
        | _ | (exception _) -> seeded ()
      end
    in
    (orig_obs, List.filter (fun v -> not (List.mem v base)) t.racy, t)
  in
  let race = try Ok (race_check ()) with e -> Error e in
  let race_free = match race with Ok (_, _, t) -> t.racy = [] | _ -> false in
  let plain =
    List.map
      (fun (seed, a, b) ->
        ( seed,
          a,
          match b with
          | Undecided when race_free ->
              incr decided;
              Race_run
          | Undecided -> submit ~seed transformed
          | b -> b ))
      plain
  in
  (* Every task is awaited, even after a race run or another task raised,
     so none outlives this enrolment. *)
  let failed = ref None in
  let await = function
    | Task fut -> (
        match Runtime.Pool.await pool fut with
        | o -> Some o
        | exception e ->
            if Option.is_none !failed then failed := Some e;
            None)
    | Race_run | Undecided -> None
  in
  let plain = List.map (fun (seed, a, b) -> (seed, await a, await b)) plain in
  Obs.Counter.add c_runs !runs;
  Obs.Counter.add c_decided !decided;
  Obs.Counter.add c_cooperative !cooperative;
  Option.iter raise !failed;
  let orig_obs, new_racy, t =
    match race with Ok r -> r | Error e -> raise e
  in
  let mismatches =
    List.concat_map
      (fun (seed, a, b) ->
        let a = match a with Some o -> o | None -> Option.get orig_obs in
        let b = Option.value b ~default:t.observation in
        List.map (fun issue -> (seed, issue)) (diff_observations a b))
      plain
  in
  let v_ok = mismatches = [] && new_racy = [] in
  Obs.Counter.incr (if v_ok then c_pass else c_fail);
  { v_ok;
    v_seeds = seeds;
    v_mismatches = mismatches;
    v_new_racy = new_racy;
    v_racy_raw = t.racy_raw }

let verdict_to_string (v : verdict) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "validation: %s (%d seed(s): %s)\n"
       (if v.v_ok then "PASS" else "FAIL")
       (List.length v.v_seeds)
       (String.concat "," (List.map string_of_int v.v_seeds)));
  List.iter
    (fun (seed, issue) ->
      Buffer.add_string b (Printf.sprintf "  seed %d: %s\n" seed issue))
    v.v_mismatches;
  if v.v_new_racy <> [] then
    Buffer.add_string b
      (Printf.sprintf "  new racy var(s): %s\n"
         (String.concat "," v.v_new_racy));
  Buffer.add_string b
    (Printf.sprintf "  racy RAW records in transformed profile: %d\n"
       v.v_racy_raw);
  Buffer.contents b

(* ---- measured work distribution ---- *)

type distribution = {
  d_threads : (int * int) list;  (* thread id -> profiled accesses *)
  d_total : int;
  d_critical : int;      (* main-thread work + heaviest spawned thread *)
  d_serial_total : int;  (* accesses of the original (serial) run *)
  d_measured_speedup : float;
  d_parallel_fraction : float;
}

let measure ?label ~(original : Mil.Ast.program)
    (transformed : Mil.Ast.program) : distribution =
  let serial = Interp.run ~instrument:false original in
  let d_serial_total = serial.r_stats.reads + serial.r_stats.writes in
  let per_thread = Hashtbl.create 8 in
  let _ =
    Interp.run
      ~on_access:(fun ~kind:_ ~addr:_ ~var:_ ~line:_ ~thread ~time:_ ~op:_
          ~lstack:_ ~locked:_ ->
        let n =
          match Hashtbl.find_opt per_thread thread with
          | Some n -> n
          | None -> 0
        in
        Hashtbl.replace per_thread thread (n + 1))
      transformed
  in
  let d_threads =
    Hashtbl.fold (fun t n acc -> (t, n) :: acc) per_thread []
    |> List.sort compare
  in
  let d_total = List.fold_left (fun acc (_, n) -> acc + n) 0 d_threads in
  let main = match List.assoc_opt 0 d_threads with Some n -> n | None -> 0 in
  let heaviest =
    List.fold_left
      (fun acc (t, n) -> if t > 0 then max acc n else acc)
      0 d_threads
  in
  let d_critical = max 1 (main + heaviest) in
  let d_measured_speedup =
    float_of_int d_serial_total /. float_of_int d_critical
  in
  (* Export the critical-path proxy per suggestion so it lands in bench
     snapshots next to the wall-clock speedups Measure reports — the rank
     correlation between the two (measure.proxy_rank_corr) is the first
     calibration input for overlap-aware ranking. *)
  (match label with
  | Some l -> Obs.Gauge.set (Obs.gauge ("transform.proxy." ^ l)) d_measured_speedup
  | None -> ());
  { d_threads;
    d_total;
    d_critical;
    d_serial_total;
    d_measured_speedup;
    d_parallel_fraction =
      (if d_total = 0 then 0.0
       else float_of_int (d_total - main) /. float_of_int d_total) }

let distribution_to_string (d : distribution) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "work distribution: %d accesses over %d thread(s), %.0f%% off the main thread\n"
       d.d_total (List.length d.d_threads) (100.0 *. d.d_parallel_fraction));
  List.iter
    (fun (t, n) ->
      Buffer.add_string b
        (Printf.sprintf "  thread %d: %d accesses (%.0f%%)\n" t n
           (100.0 *. float_of_int n /. float_of_int (max 1 d.d_total))))
    d.d_threads;
  Buffer.add_string b
    (Printf.sprintf
       "measured speedup proxy: %.2fx (serial %d / critical %d)\n"
       d.d_measured_speedup d.d_serial_total d.d_critical);
  Buffer.contents b
