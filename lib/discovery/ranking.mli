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

type factors = {
  f_coverage : float;   (** instruction coverage from the PET *)
  f_imbalance : float;  (** CU imbalance of the region's RAW CU graph *)
}
(** What a score takes from its region alone; {!combine} adds the bound. *)

val region_factors :
  Static.t -> Cunit.Top_down.result -> Dep.Set_.t -> Profiler.Pet.t -> int ->
  factors
(** [region_factors st cures deps pet rid] measures region [rid]. Each call
    builds the region's CU graph and walks the PET, and counts itself in
    [discovery.ranking.regions_scored]. *)

val to_string : score -> string
