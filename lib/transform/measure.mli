(** Measured wall-clock speedups of transformed programs.

    Where {!Validate.measure} reports a critical-path *proxy* from profiled
    access counts, this module actually executes: the sequential original
    under {!Mil.Interp} (uninstrumented) and the transformed program under
    {!Mil.Par_eval} on a {!Runtime.Pool} of 1..N domains, with warmup and
    repetitions, checking output equality against the sequential
    observation on every parallel run.  This is the paper's Tables made
    real: suggestion -> transform -> verified speedup. *)

type run_stat = {
  r_domains : int;
  r_wall_s : float;       (** median wall-clock of the timed repetitions *)
  r_speedup : float;      (** sequential median / this median *)
  r_efficiency : float;   (** speedup / domains *)
  r_equal : bool;         (** observably equal to the sequential run *)
  r_tasks : int;
      (** pool tasks executed during the timed reps, every [Par] arm
          counted, including the first arm the caller runs inline as
          executor 0 *)
  r_steals : int;         (** successful steals during the timed reps *)
  r_imbalance : float;
      (** max executor busy-ns / mean busy-ns (>= 1), over every executor
          including the caller's executor 0 *)
}

type t = {
  m_name : string;
  m_domains : int;              (** the sweep's maximum *)
  m_warmup : int;
  m_reps : int;
  m_seq_wall_s : float;         (** sequential median *)
  m_runs : run_stat list;       (** one row per domain count, ascending *)
  m_equal : bool;               (** every parallel run observably equal *)
  m_best_speedup : float;       (** best over the sweep *)
}

val measure :
  ?domains:int ->
  ?warmup:int ->
  ?reps:int ->
  name:string ->
  original:Mil.Ast.program ->
  Mil.Ast.program ->
  t
(** Defaults: [domains] = 4, [warmup] = 1, [reps] = 3. Both evaluators run
    at their default seed, {!Mil.Compile.Rng.default_seed}.  Each
    domain count d > 1 runs on the process's persistent pool of d
    executors ({!Runtime.Pool.shared}), which exists before the timed
    region.  Publishes per-run gauges [measure.<name>.speedup_d<d>] and
    [measure.<name>.equal] (1/0) in the [Obs] registry. *)

val to_json : t -> Obs.Json.t

val to_string : t -> string
(** The rendered table with a header line, for the CLI report. *)
