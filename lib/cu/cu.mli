(** Computational Units (Chapter 3): the smallest units of code mapped onto
    a thread. A CU is a collection of instructions following the
    read-compute-write pattern over the variables global to its enclosing
    code section; it never crosses a control-region boundary, but need not
    align with a source-language construct. *)

module SS = Mil.Static.SS

type t = {
  id : int;
  region : int;           (** {!Mil.Static} region the CU belongs to *)
  func : string;
  lines : SS.t;           (** statement lines (as strings, for set ops) *)
  first_line : int;
  last_line : int;
  read_set : SS.t;        (** global variables read (the read phase) *)
  write_set : SS.t;       (** global variables written (the write phase) *)
  weight : int;           (** static statement count, a size proxy *)
  contains_call : bool;
  contains_region : bool; (** spans a nested loop/branch *)
}

val mem_line : t -> int -> bool

val make :
  id:int -> region:int -> func:string -> lines:int list -> read_set:SS.t ->
  write_set:SS.t -> weight:int -> contains_call:bool -> contains_region:bool ->
  t

val to_string : t -> string
