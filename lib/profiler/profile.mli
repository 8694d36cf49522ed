(** The profiler's one configuration and its one entry point: the serial
    reference profiler and the lock-free parallel profiler (§2.3.3,
    Fig. 2.9) are two settings of [workers], and both return
    {!Serial.result}. *)

type config = {
  shadow : Engine.shadow_kind;
  skip : bool;     (** the §2.4 skip optimization *)
  workers : int;   (** 0 = serial profiler, n > 0 = parallel with n domains *)
}

val default : config
(** Perfect shadow, skip on, serial. *)

val to_string : config -> string
(** [shadow=perfect|signature:N skip=B workers=N], part of the pipeline's
    cache key. *)

val check : config -> (config, string) result
(** Rejects a signature of fewer than 1 slot and a negative worker count. *)

val run : ?cancelled:(unit -> bool) -> config -> Mil.Ast.program -> Serial.result
(** {!Serial.profile} when [workers <= 0], else {!Parallel.profile} with
    [workers] domains, each owning [n / workers] slots of a [Signature n].
    [cancelled] is polled as in {!Serial.profile}. *)
