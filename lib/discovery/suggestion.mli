(** The framework front door: phases 1-3 of Fig. 1.3 — profile, construct
    CUs, discover loop and task parallelism, rank — over a MIL program. *)

module Dep = Profiler.Dep
module Static = Mil.Static

type kind =
  | Sdoall of Loops.analysis
  | Sdoacross of Loops.analysis
  | Sspmd of Tasks.spmd
  | Smpmd of Tasks.mpmd

type t = { kind : kind; region : int; score : Ranking.score }

type report = {
  program : Mil.Ast.program;
  static : Static.t;
  cures : Cunit.Top_down.result;
  profile : Profiler.Serial.result;
  loops : Loops.analysis list;
  suggestions : t list;  (** sorted by rank, best first *)
}

val kind_to_string : kind -> string

val compare_rank : t -> t -> int
(** Rank order, best first: a total order even if a score's [combined] is
    NaN (ranked below every finite score), with deterministic region/kind
    tie-breaks. *)

val analyze : ?threads:int -> Mil.Ast.program -> report
(** All three phases, profiling under {!Profiler.Profile.default}.
    [threads] (default 4) bounds the kind-aware local-speedup metric. *)

val analyze_profiled :
  ?threads:int -> Mil.Ast.program -> Profiler.Serial.result -> report
(** Phases 2-3 only, over an existing phase-1 profile of [prog], serial or
    parallel — how the batch pipeline analyzes a profile it ran under its
    own configuration. *)

(** A suggestion reduced to what the batch cache persists: region, rendered
    kind, and score. *)
type summary_entry = {
  e_region : int;
  e_kind : string;
  e_score : Ranking.score;
}

val summarize : report -> summary_entry list

val summary_to_string : ?name:string -> summary_entry list -> string
(** One [S]-line per suggestion with %.17g floats (exact round-trip); the
    serialization the batch cache stores and compares byte-for-byte. *)

val summary_of_string : string -> (summary_entry list, string) result

val render : report -> string
