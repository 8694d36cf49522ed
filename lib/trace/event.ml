(* The instrumented instruction stream.

   The MIL interpreter hands one access per dynamic memory instruction to an
   [access_sink] and emits {!region} events at control-region boundaries —
   the same interface DiscoPoP obtains by instrumenting LLVM IR loads/stores
   and control regions. *)

type kind = Read | Write

(* One entry of the dynamic loop stack: which static loop (by header line),
   which dynamic instance of it, and the current iteration number. Stacks are
   stored outermost-first and shared immutably between accesses. *)
type frame = { loop_line : int; inst : int; iter : int }

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

type sync = Fork | Join | Acquire | Release | Arrive | Depart

type sync_sink = sync -> thread:int -> obj:int -> unit

type region =
  | Loop_entry of { line : int; inst : int }
  | Loop_iter of { line : int; inst : int; iter : int }
  | Loop_exit of { line : int; inst : int; iterations : int }
  | Func_entry of { name : string; line : int; call_line : int }
  | Func_exit of { name : string; line : int }
  | Dealloc of { addrs : (int * int * string) list }
      (* (base, length, var): scope exit or explicit free ended these
         variables' lifetimes (§2.3.5) *)
  | Thread_start of { thread : int }
  | Thread_end of { thread : int }

let kind_to_string = function Read -> "read" | Write -> "write"

(* Deepest loop at which two accesses share a dynamic instance. *)
let rec common_frames a b =
  match (a, b) with
  | fa :: ra, fb :: rb when fa.loop_line = fb.loop_line && fa.inst = fb.inst ->
      (fa, fb) :: common_frames ra rb
  | _ -> []

(* If a dependence between accesses with loop stacks [src] and [snk] is
   loop-carried, return the carrying frame (from the sink's stack): the
   deepest common loop instance where the iteration numbers differ. *)
let carrier ~src ~snk =
  match List.rev (common_frames src snk) with
  | (fa, fb) :: _ when fa.iter <> fb.iter -> Some fb
  | _ -> None

let innermost lstack =
  match List.rev lstack with [] -> None | f :: _ -> Some f
