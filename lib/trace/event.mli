(** The instrumented instruction stream.

    The MIL interpreter hands one access per dynamic memory instruction to
    an {!access_sink} and emits {!region} events at control-region
    boundaries — the same interface DiscoPoP obtains by instrumenting LLVM
    IR loads/stores and control regions. *)

type kind = Read | Write

(** One entry of the dynamic loop stack: which static loop (by header line),
    which dynamic instance of it, and the current iteration number. Stacks
    are stored outermost-first and shared immutably between accesses. *)
type frame = { loop_line : int; inst : int; iter : int }

(** A consumer of dynamic memory instructions, one call per access with
    its fields as labeled immediates: the interpreter hands every access to
    the profilers this way, so nothing is allocated on the way. Variable
    names and loop stacks are interned ({!Intern}), so the hot path copies
    no strings and no lists. The fields:
    - [kind]: read or write;
    - [addr]: memory address (dense, bump-allocated);
    - [var]: source-level variable name ({!Intern.Sym});
    - [line]: source line of the access;
    - [thread]: executing thread id; 0 is the main thread;
    - [time]: global timestamp, strictly increasing;
    - [op]: static memory-operation id (for §2.4 skipping);
    - [lstack]: loop stack at the access (id in the run's
      {!Intern.Lstack.t});
    - [locked]: the thread held at least one lock. *)
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

(** A synchronisation operation of a threaded run: what a happens-before
    race detector needs besides the accesses. [thread] performs it on
    [obj]. *)
type sync =
  | Fork  (** [thread] starts the child thread [obj] *)
  | Join  (** the child thread [obj] has ended and [thread] joins it *)
  | Acquire  (** [thread] takes lock [obj] *)
  | Release  (** [thread] releases lock [obj] *)
  | Arrive  (** [thread] arrives at barrier [obj] *)
  | Depart
      (** [thread] leaves barrier [obj]: every participant has arrived *)

(** A consumer of sync operations, as unboxed fields. Lock ids [>= 0] are
    named locks, numbered per run in first-use order; an atomic update of
    the variable with symbol [v] acquires and releases lock [-(v + 1)].
    Barrier ids are numbered per run. *)
type sync_sink = sync -> thread:int -> obj:int -> unit

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

val kind_to_string : kind -> string

val carrier : src:frame list -> snk:frame list -> frame option
(** If a dependence between accesses with loop stacks [src] and [snk] is
    loop-carried, the carrying frame (from the sink's stack): the deepest
    common loop instance where the iteration numbers differ. *)

val innermost : frame list -> frame option
(** The innermost loop frame, if the access was inside a loop. *)
