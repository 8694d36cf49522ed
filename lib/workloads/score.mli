(** Scoring of discovery results against workload ground truth — the
    machinery behind Table 4.1 (DOALL detection) and Table 4.4. *)

module L = Discovery.Loops

type loop_result = {
  workload : string;
  loop_line : int;
  expected : Registry.expectation;
  got : L.loop_class;
  exact : bool;        (** class matches exactly *)
  binary : bool;       (** parallelisable-vs-not matches (Table 4.1) *)
}

val exact_match : Registry.expectation -> L.loop_class -> bool

val score_workload : Registry.t -> loop_result list

type summary = {
  total_scored : int;
  exact_correct : int;
  binary_correct : int;
  parallel_truth : int;      (** ground-truth parallelisable loops *)
  parallel_found : int;      (** of those, correctly identified *)
  false_parallel : int;      (** non-parallelisable loops claimed parallel *)
}

val summarise : loop_result list -> summary
val detection_rate : summary -> float
