(** Ranking of parallelization targets (§4.3): instruction coverage, the
    caller's local speedup bound for the suggestion's kind, and CU imbalance
    (Fig. 4.6), combined through Amdahl's law. *)

module Dep = Profiler.Dep
module Static = Mil.Static

type score = {
  coverage : float;        (** share of whole-program instructions, [0,1] *)
  local_speedup : float;   (** the kind's bound, clamped to >= 1 *)
  imbalance : float;       (** [0,1], lower is better *)
  combined : float;        (** Amdahl gain discounted by imbalance *)
}

val rank_key : score -> float
(** The sort key for [combined]: identical for finite scores, but maps NaN
    to [neg_infinity] so ordering by it is always a total order. *)

val combine :
  coverage:float -> local_speedup:float -> imbalance:float -> score
(** Build a score from the three metrics, clamping each to its documented
    range (NaN and infinities included) so every field — [combined] in
    particular — is finite. *)

val score_region :
  local_speedup:float ->
  Static.t -> Cunit.Top_down.result -> Dep.Set_.t -> Profiler.Pet.t -> int ->
  score
(** [score_region ~local_speedup st cures deps pet rid] scores region [rid]:
    its instruction coverage from the PET and its CU imbalance from the
    region's RAW CU graph, combined with the given bound. *)

val to_string : score -> string
