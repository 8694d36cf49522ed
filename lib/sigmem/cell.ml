(* The per-slot access record exchanged with shadow memories.

   The paper stores the source line of the last read and the last write per
   slot (3-byte slots, §2.3.2). We additionally keep the attribution data the
   profiler reports (variable, thread, timestamp, loop stack, static memory
   operation id). With interned names and loop stacks (Trace.Intern) every
   field is an immediate int.

   Since the off-heap overhaul, cells are *scratch buffers*, not stored
   values: the shadow backends keep slots as packed int fields in flat
   off-heap stores ({!Store}) and decode/encode them through a handful of
   per-engine mutable cells. Nothing on the per-access hot path allocates a
   cell — each engine creates its three scratches once and reuses them for
   every access. *)

type t = {
  mutable line : int;               (* source line of the access *)
  mutable var : int;                (* variable name (Trace.Intern.Sym) *)
  mutable thread : int;
  mutable time : int;               (* global timestamp; 0 = empty *)
  mutable op : int;                 (* static memory-operation id *)
  mutable lstack : int;             (* loop stack (id in the run's table) *)
  mutable locked : bool;
}

(* A fresh scratch cell holding the empty sentinel; [time = 0] never occurs
   in real accesses. *)
let scratch () =
  { line = 0; var = -1; thread = -1; time = 0; op = -1;
    lstack = Trace.Intern.Lstack.empty; locked = false }

let clear c =
  c.line <- 0;
  c.var <- -1;
  c.thread <- -1;
  c.time <- 0;
  c.op <- -1;
  c.lstack <- Trace.Intern.Lstack.empty;
  c.locked <- false

let is_empty c = c.time = 0

(* Construction by fields, for tests and micro-benchmarks. *)
let v ~line ~var ~thread ~time ~op ~lstack ~locked =
  { line; var; thread; time; op; lstack; locked }

let set c (a : Trace.Event.access) =
  c.line <- a.line;
  c.var <- a.var;
  c.thread <- a.thread;
  c.time <- a.time;
  c.op <- a.op;
  c.lstack <- a.lstack;
  c.locked <- a.locked
