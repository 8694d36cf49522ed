(* The framework front door: run phases 1-3 (§1.5) over a MIL program and
   produce ranked parallelization suggestions. *)

module Dep = Profiler.Dep
module Static = Mil.Static

type kind =
  | Sdoall of Loops.analysis
  | Sdoacross of Loops.analysis
  | Sspmd of Tasks.spmd
  | Smpmd of Tasks.mpmd

type t = {
  kind : kind;
  region : int;
  score : Ranking.score;
}

type report = {
  program : Mil.Ast.program;
  static : Static.t;
  cures : Cunit.Top_down.result;
  profile : Profiler.Serial.result;
  loops : Loops.analysis list;
  suggestions : t list;  (* sorted by rank, best first *)
}

let kind_to_string = function
  | Sdoall a | Sdoacross a -> Loops.to_string a
  | Sspmd s -> Tasks.spmd_to_string s
  | Smpmd m -> Tasks.mpmd_to_string m

let c_suggestions = Obs.counter "discovery.suggestions"

(* Rank comparator, best first. Total even when a NaN sneaks into
   [combined] ([Ranking.rank_key] maps it to -inf), with deterministic
   region/kind tie-breaks so equal-scored suggestions keep a stable order —
   the batch cache compares serialized suggestion lists byte-for-byte. *)
let compare_rank (a : t) (b : t) : int =
  let c = compare (Ranking.rank_key b.score) (Ranking.rank_key a.score) in
  if c <> 0 then c
  else
    let c = compare a.region b.region in
    if c <> 0 then c
    else compare (kind_to_string a.kind) (kind_to_string b.kind)

let analyze_profiled ?(threads = 4) (prog : Mil.Ast.program)
    (profile : Profiler.Serial.result) : report =
  let static = Obs.Span.with_ ~phase:"static" (fun () -> Static.analyze prog) in
  let cures = Cunit.Top_down.build static in
  let deps = profile.Profiler.Serial.deps in
  let pet = profile.Profiler.Serial.pet in
  Obs.Span.with_ ~phase:"discovery" @@ fun () ->
  let loops = Loops.analyze_all static cures deps pet in
  let t = float_of_int (max 1 threads) in
  (* The ranking's estimator is a per-kind local speedup bound, capped by
     the thread count: DOALL iterations; DOACROSS the number of overlappable
     body CUs; SPMD the thread count itself; an MPMD task graph its width
     and a pipeline its stage count. [Ranking.combine] clamps it to >= 1.
     A region can carry several suggestions (a DOALL loop is also a
     loop-tasks SPMD one); its factors are measured once. *)
  let factors = Hashtbl.create 16 in
  let score ~bound rid =
    let f =
      match Hashtbl.find_opt factors rid with
      | Some f -> f
      | None ->
          let f = Ranking.region_factors static cures deps pet rid in
          Hashtbl.add factors rid f;
          f
    in
    Ranking.combine ~coverage:f.Ranking.f_coverage
      ~local_speedup:(min (float_of_int bound) t) ~imbalance:f.f_imbalance
  in
  let loop_suggestions =
    List.filter_map
      (fun (a : Loops.analysis) ->
        let rid = a.Loops.region.Static.id in
        match a.Loops.cls with
        | Loops.Doall | Loops.Doall_reduction ->
            Some
              { kind = Sdoall a; region = rid;
                score = score ~bound:a.Loops.iterations rid }
        | Loops.Doacross ->
            let stages = max 2 (List.length a.Loops.body_cus) in
            Some
              { kind = Sdoacross a; region = rid;
                score = score ~bound:stages rid }
        | Loops.Sequential -> None)
      loops
  in
  let spmd =
    Tasks.recursive_forkjoin static cures deps @ Tasks.loop_tasks loops
    |> List.map (fun (s : Tasks.spmd) ->
           { kind = Sspmd s; region = s.Tasks.s_region;
             score = score ~bound:threads s.Tasks.s_region })
  in
  let mpmd =
    (* Look for MPMD structure in every function and executed loop body. *)
    Array.to_list static.Static.regions
    |> List.filter_map (fun (r : Static.region) ->
           match r.Static.kind with
           | Static.Rfunc _ | Static.Rloop _ -> (
               match Tasks.mpmd_of_region cures r.Static.id with
               | Some m when m.Tasks.m_width >= 2 ->
                   Some
                     { kind = Smpmd m; region = r.Static.id;
                       score = score ~bound:m.Tasks.m_width r.Static.id }
               | Some ({ Tasks.m_shape = Tasks.Pipeline; _ } as m)
                 when List.length m.Tasks.m_stages >= 3
                      && (match r.Static.kind with
                         | Static.Rloop _ -> true
                         | Static.Rfunc _ | Static.Rbranch _ -> false) ->
                   (* a linear stage chain executed per loop iteration:
                      pipeline parallelism over the stream of work items
                      (speedup bounded by the stage count) *)
                   Some
                     { kind = Smpmd m; region = r.Static.id;
                       score =
                         score ~bound:(List.length m.Tasks.m_stages)
                           r.Static.id }
               | Some _ | None -> None)
           | Static.Rbranch _ -> None)
  in
  let suggestions = loop_suggestions @ spmd @ mpmd |> List.sort compare_rank in
  Obs.Counter.add c_suggestions (List.length suggestions);
  { program = prog; static; cures; profile; loops; suggestions }

let analyze ?(threads = 4) (prog : Mil.Ast.program) : report =
  analyze_profiled ~threads prog
    (Profiler.Profile.run Profiler.Profile.default prog)

(* ---- serialized suggestion summaries (the batch cache's phase-2/3
   artifact) ----

   One line per suggestion:

     S <region> <coverage> <local_speedup> <imbalance> <combined> <kind...>

   Floats use %.17g so parsing reproduces them exactly; the kind string is
   last because it contains spaces. *)

type summary_entry = {
  e_region : int;
  e_kind : string;
  e_score : Ranking.score;
}

let summarize (r : report) : summary_entry list =
  List.map
    (fun s ->
      { e_region = s.region; e_kind = kind_to_string s.kind; e_score = s.score })
    r.suggestions

let summary_to_string ?(name = "") (entries : summary_entry list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "# discopop-suggestions v1 name=%s count=%d\n"
       (if name = "" then "-" else name)
       (List.length entries));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "S %d %.17g %.17g %.17g %.17g %s\n" e.e_region
           e.e_score.Ranking.coverage e.e_score.Ranking.local_speedup
           e.e_score.Ranking.imbalance e.e_score.Ranking.combined e.e_kind))
    entries;
  Buffer.contents buf

let summary_of_string (s : string) : (summary_entry list, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_line line =
    (* Split off the first six space-separated fields; the remainder is the
       kind string verbatim (it may itself contain spaces). *)
    let rec field_end i n =
      if n = 0 then i
      else
        match String.index_from_opt line i ' ' with
        | Some j -> field_end (j + 1) (n - 1)
        | None -> String.length line
    in
    let cut = field_end 0 6 in
    match String.split_on_char ' ' (String.sub line 0 (max 0 (cut - 1))) with
    | [ "S"; region; cov; ls; imb; comb ] -> (
        try
          Ok
            { e_region = int_of_string region;
              e_kind = String.sub line cut (String.length line - cut);
              e_score =
                { Ranking.coverage = float_of_string cov;
                  local_speedup = float_of_string ls;
                  imbalance = float_of_string imb;
                  combined = float_of_string comb } }
        with Failure _ -> Error ())
    | _ -> Error ()
  in
  match String.split_on_char '\n' s with
  | header :: rest when String.length header >= 25
                        && String.sub header 0 25 = "# discopop-suggestions v1" ->
      let entries = ref [] in
      let bad = ref None in
      List.iter
        (fun line ->
          if line <> "" && !bad = None then
            match parse_line line with
            | Ok e -> entries := e :: !entries
            | Error () -> bad := Some line)
        rest;
      (match !bad with
      | Some line -> err "malformed suggestion line: %s" line
      | None -> Ok (List.rev !entries))
  | _ -> err "missing discopop-suggestions v1 header"

let render (r : report) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "=== %s: %d suggestions ===\n" r.program.Mil.Ast.pname
       (List.length r.suggestions));
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "%2d. [%s] %s\n" (i + 1) (Ranking.to_string s.score)
           (kind_to_string s.kind)))
    r.suggestions;
  Buffer.contents buf
