(** Textual output in the paper's format (Fig. 2.1 / 2.3): [BGN]/[END]
    control records and [NOM] lines aggregating the dependences whose sink is
    that source line. *)

(** Region begin/end markers to interleave with the dependence lines. *)
type control = {
  loop_begin : (int, unit) Hashtbl.t;
  loop_end : (int, int) Hashtbl.t;  (** end line -> iterations *)
  func_begin : (int, string) Hashtbl.t;
  func_end : (int, string) Hashtbl.t;
}

val control_of_pet : Pet.t -> control
(** Derive the markers from a program execution tree. *)

val render : ?threads:bool -> ?control:control -> Dep.Set_.t -> string
(** [threads] switches sinks and sources to the [file:line|thread] form used
    for multi-threaded targets (Fig. 2.3). *)

val render_explain : ?top:int -> ?threads:bool -> Dep.Set_.t -> string
(** The [discopop explain] table: merged records ranked hottest-first, each
    with its first-witness provenance (timestamp, dynamic access index,
    profiling domain) and false-positive risk (0 under exact shadows).
    [top > 0] limits the rows shown. *)
