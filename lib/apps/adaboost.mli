(** AdaBoost over decision stumps (§5.1, Tables 5.2/5.3): classifies DOALL
    loops from the profiler-derived feature vectors and reports feature
    importance as the ensemble weight carried by each feature. *)

type stump = {
  feature : int;
  threshold : float;
  polarity : bool;  (** [true]: predict positive when value <= threshold *)
}

type model

val train : Features.sample list -> model
(** 20 boosting rounds, fewer if no stump beats chance first. *)

val feature_importance : model -> (string * float) list
(** Share of total ensemble weight per feature, descending (Table 5.2). *)

type scores = {
  accuracy : float;
  precision : float;
  recall : float;
  f1 : float;
  n : int;
}

val evaluate : model -> Features.sample list -> scores

val split : Features.sample list -> Features.sample list * Features.sample list
(** Deterministic train/test split by hash of the sample tag; roughly one in
    three samples goes to the test set. *)
