(** Interning for the profiler hot path: variable names as int symbols, and
    loop stacks as int ids into a table that lives for one profiling run.

    Only the producer domain (the interpreter) pushes loop stacks; worker
    domains read ids they received through the profiler queues, whose
    push/pop is the happens-before edge publishing the table's nodes. *)

(** Variable-name symbols, process-global and interned under a mutex when a
    program is lowered. *)
module Sym : sig
  val intern : string -> int

  val name : int -> string
  (** The original string; physically shared, so resolving the same symbol
      twice yields [==]-equal strings. *)
end

(** One run's loop stacks: a stack is an int id into an append-only table.
    Nothing is hash-consed: within a run every pushed frame is new (fresh
    loop-instance ids, each iteration pushed once), so distinct ids are
    distinct stacks. Nodes sit in fixed-size blocks that never move, so a
    push never copies the table. The table becomes garbage when the run
    ends. *)
module Lstack : sig
  type t

  val create : unit -> t

  val block_nodes : int
  (** Nodes per block: the table grows by one block every [block_nodes]
      pushes. *)

  val empty : int
  (** The empty stack (id 0), in every table. *)

  val push : t -> parent:int -> loop_line:int -> inst:int -> iter:int -> int
  (** The stack [parent] extended with one frame: always a new id. *)

  val depth : t -> int -> int

  val carrier_code : t -> src:int -> snk:int -> int
  (** {!Event.carrier} on stack ids, as a code: the carrying loop's header
      line, or [-1] when the dependence is not loop-carried.
      Allocation-free. *)

  val to_frames : t -> int -> Event.frame list

  val of_frames : t -> Event.frame list -> int
  (** Idempotent on one table: pushing frames already present returns the
      existing ids (a linear scan; for tests). *)

  val nodes : t -> int
  (** Node count, the empty stack included. *)

  val words : t -> int
  (** Words the table holds: every allocated block, the unused part of the
      last one included, and the block directory. *)
end
