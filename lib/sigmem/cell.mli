(** The per-slot access record exchanged with shadow memories.

    The paper stores the source line of the last read and the last write per
    slot (§2.3.2); we additionally keep the attribution data the profiler
    reports. Names are interned symbols and loop stacks ids into the run's
    loop-stack table, so every field is an immediate int.

    Cells are mutable *scratch buffers*: shadow backends keep slots as
    packed int fields in flat off-heap stores ({!Store}) and decode/encode
    them through per-engine scratch cells, so the per-access hot path
    allocates nothing. *)

type t = {
  mutable line : int;         (** source line of the access *)
  mutable var : int;          (** variable name ({!Trace.Intern.Sym}) *)
  mutable thread : int;
  mutable time : int;         (** global timestamp; 0 = empty slot *)
  mutable op : int;           (** static memory-operation id *)
  mutable lstack : int;       (** loop stack (id in the run's
                                  {!Trace.Intern.Lstack.t}) *)
  mutable locked : bool;
}

val scratch : unit -> t
(** A fresh scratch cell holding the empty sentinel ([time = 0], which never
    occurs in real accesses). *)

val clear : t -> unit
(** Reset to the empty sentinel. *)

val is_empty : t -> bool

val v :
  line:int -> var:int -> thread:int -> time:int -> op:int -> lstack:int ->
  locked:bool -> t
(** Construction by fields, for tests and micro-benchmarks. *)

val set : t -> Trace.Event.access -> unit
(** Copy an access record's attribution fields into the scratch. *)
