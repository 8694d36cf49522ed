(** Dynamic features for DOALL loop characterisation (§5.1, Table 5.1):
    each executed loop is described by a vector extracted from the profiler
    output, which the AdaBoost ensemble learns to classify. *)

module Dep = Profiler.Dep
module L = Discovery.Loops

type vector = {
  f_iterations : float;
  f_instr_per_iter : float;
  f_carried_raw : float;       (** distinct loop-carried RAW deps *)
  f_carried_war : float;
  f_carried_waw : float;
  f_intra_raw : float;
  f_reduction_updates : float;
  f_body_cus : float;
  f_has_calls : float;         (** 0/1 *)
  f_write_ratio : float;
  f_coverage : float;
}

val names : string list
val dim : int

(** A labelled corpus row. *)
type sample = { x : float array; y : bool; tag : string }

val corpus : Workloads.Registry.t list -> sample list
(** Build the corpus from workloads, labelling loops by ground truth;
    unscored ([Eany]) loops and parallel targets are skipped. *)
