(** The MIL optimization-pass framework (ROADMAP item 3): named
    [program -> program] passes with per-pass Obs click counters and a
    fixpoint pipeline driver.

    Counters, under the pipeline's Obs registry:
    - [pass.<name>.fired] — invocations that changed the program
    - [pass.<name>.stmts_removed] / [pass.<name>.exprs_folded] — work done
    - [pass.<name>.refused] — a restructuring pass {!run} did not run, the
      program failing {!sequential_program}
    - [pass.pipeline.rounds] — fixpoint rounds executed

    Every pass preserves the observable behaviour compared by
    [Transform.Validate.diff_observations] (entry result, final globals,
    print stream) and keeps the [line] of every surviving statement;
    statements a pass introduces reuse the line of the construct they
    replace, so an optimized program's depfile line keys are a subset of
    the seed's. *)

val names : unit -> string list
(** Registered pass names, in default pipeline order-independent registry
    order. *)

val doc : string -> string option
(** One-line description of a pass, if registered. *)

val sequential_program : Ast.program -> bool
(** No [Par]/[Lock]/[Unlock]/[Barrier] anywhere. This is the restructuring
    gate, and {!run} is its one checker: statement counts drive the fiber
    scheduler's shared PRNG, so a pass that changes them (simplify, dce,
    unroll, hoist) runs only on a program that passes; on any other
    program {!run} skips it. *)

type report = {
  program : Ast.program;  (** the optimized program (input is not mutated) *)
  rounds : int;           (** fixpoint rounds run *)
  changes : int;          (** total rewrites across all rounds *)
  per_pass : (string * int) list;  (** changes attributed to each pass *)
}

val run : ?passes:string list -> Ast.program -> (report, string) result
(** Run the selected passes (default the cleanup pipeline fold → prop →
    simplify → dce → unroll → hoist) in list order,
    repeating the whole sequence until a round makes no change or 8 rounds
    have run. [Error] names the first unknown pass. *)
