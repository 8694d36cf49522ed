(** The instrumented instruction stream.

    The MIL interpreter emits one {!access} per dynamic memory instruction and
    {!region} events at control-region boundaries — the same interface
    DiscoPoP obtains by instrumenting LLVM IR loads/stores and control
    regions. *)

type kind = Read | Write

(** One entry of the dynamic loop stack: which static loop (by header line),
    which dynamic instance of it, and the current iteration number. Stacks
    are stored outermost-first and shared immutably between accesses. *)
type frame = { loop_line : int; inst : int; iter : int }

(** A dynamic memory instruction. Variable names and loop stacks are
    interned ({!Intern}): [var] is a symbol and [lstack] an id into the
    run's loop-stack table, so an access is a flat record of immediates —
    the hot path copies no strings and no lists. *)
type access = {
  kind : kind;
  addr : int;           (** memory address (dense, bump-allocated) *)
  var : int;            (** source-level variable name ({!Intern.Sym}) *)
  line : int;           (** source line of the access *)
  thread : int;         (** executing thread id; 0 is the main thread *)
  time : int;           (** global timestamp, strictly increasing *)
  op : int;             (** static memory-operation id (for §2.4 skipping) *)
  lstack : int;         (** loop stack at the access (id in the run's
                            {!Intern.Lstack.t}) *)
  locked : bool;        (** the thread held at least one lock *)
}

(** A consumer of accesses given as the labeled, unboxed fields of an
    {!access}: the interpreter hands every access to the profilers this way,
    so the record is never allocated on the way. *)
type access_sink =
  kind:kind ->
  addr:int ->
  var:int ->
  line:int ->
  thread:int ->
  time:int ->
  op:int ->
  lstack:int ->
  locked:bool ->
  unit

(** Control-region and lifetime events. *)
type region =
  | Loop_entry of { line : int; inst : int }
  | Loop_iter of { line : int; inst : int; iter : int }
  | Loop_exit of { line : int; inst : int; iterations : int }
  | Func_entry of { name : string; line : int; call_line : int }
  | Func_exit of { name : string; line : int }
  | Dealloc of { addrs : (int * int * string) list }
      (** [(base, length, var)]: scope exit or explicit free ended these
          variables' lifetimes (§2.3.5) *)
  | Thread_start of { thread : int }
  | Thread_end of { thread : int }

type t = Access of access | Region of region

val kind_to_string : kind -> string

val common_frames : frame list -> frame list -> (frame * frame) list
(** Longest common prefix of two loop stacks sharing loop instances. *)

val carrier : src:frame list -> snk:frame list -> frame option
(** If a dependence between accesses with loop stacks [src] and [snk] is
    loop-carried, the carrying frame (from the sink's stack): the deepest
    common loop instance where the iteration numbers differ. *)

val innermost : frame list -> frame option
(** The innermost loop frame, if the access was inside a loop. *)
