(* Shared benchmark utilities: robust timing, table rendering, and the
   workload sets each experiment sweeps over. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Median of [reps] timings; the first (warm-up) run is discarded. *)
let med_time ?(reps = 3) f =
  ignore (f ());
  let ts =
    List.init reps (fun _ ->
        let _, t = time f in
        t)
    |> List.sort compare
  in
  List.nth ts (reps / 2)

let header title = Printf.printf "\n==== %s ====\n" title

(* [q]-quantile of an ascending array, nearest rank below; 0 when empty. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* The comma-separated names in [$env], or [default] when it is unset or
   empty, each looked up by [find]. A name [find] does not know prints
   [unknown name] and is skipped. *)
let env_list env ~default ~find ~unknown =
  let names =
    match Sys.getenv_opt env with
    | None | Some "" -> default
    | Some s -> String.split_on_char ',' s |> List.map String.trim
  in
  List.filter_map
    (fun name ->
      match find name with
      | Some x -> Some x
      | None ->
          print_endline (unknown name);
          None)
    names

let row fmt = Printf.printf fmt

(* Render a simple aligned table. *)
let table ~columns (rows : string list list) =
  let widths =
    List.mapi
      (fun c name ->
        List.fold_left
          (fun acc r -> max acc (String.length (List.nth r c)))
          (String.length name) rows)
      columns
  in
  let line cells =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      cells;
    print_newline ()
  in
  line columns;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

(* Workload sets, at bench-friendly sizes. *)
let nas = Workloads.Nas.all

let starbench_seq =
  List.filter
    (fun (w : Workloads.Registry.t) -> not w.parallel_target)
    Workloads.Starbench.all

let starbench_par =
  List.filter
    (fun (w : Workloads.Registry.t) -> w.parallel_target)
    Workloads.Starbench.all

let native_time (prog : Mil.Ast.program) =
  med_time (fun () -> Mil.Interp.run ~instrument:false prog)

(* Phase-1 memo: several experiments analyze the same workload at default
   settings; profiling dominates their cost, so a full-harness run repays
   caching the reports in-process. Keyed by workload name — registry names
   are unique and every call site uses the default analyze configuration.
   Run one experiment alone (`-e <id>`) to measure it cold. *)
let analyze_memo : (string, Discovery.Suggestion.report) Hashtbl.t =
  Hashtbl.create 32

let analyze_cached (w : Workloads.Registry.t) : Discovery.Suggestion.report =
  match Hashtbl.find_opt analyze_memo w.name with
  | Some report -> report
  | None ->
      let report = Discovery.Suggestion.analyze (Workloads.Registry.program w) in
      Hashtbl.replace analyze_memo w.name report;
      report

(* Count the distinct addresses a program touches (for Eq. 2.2 columns). *)
let count_addresses prog =
  let seen = Hashtbl.create 4096 in
  let _ =
    Mil.Interp.run
      ~on_access:(fun ~kind:_ ~addr ~var:_ ~line:_ ~thread:_ ~time:_ ~op:_
          ~lstack:_ ~locked:_ -> Hashtbl.replace seen addr ())
      prog
  in
  Hashtbl.length seen

(* A program's access stream, recorded once so that an engine can be
   measured alone, replaying it: one packed chunk, sized by a first,
   uninstrumented run's access count, with the loop-stack table its
   accesses' stack ids refer to. *)
let record_stream prog =
  let s = (Mil.Interp.run ~instrument:false prog).Mil.Interp.r_stats in
  let lstacks = Trace.Intern.Lstack.create () in
  let c = Trace.Chunk.create ~capacity:(s.reads + s.writes) () in
  ignore (Mil.Interp.run ~lstacks ~on_access:(Trace.Chunk.push_access c) prog);
  (lstacks, c)

let replay engine stream =
  Trace.Chunk.iter stream ~access:(Profiler.Engine.feed_fields engine)
    ~remove:ignore
