(** The whole workload registry. *)

val all : Registry.t list
(** The 71 programs of every suite, in the order [discopop list] prints
    them: textbook, NAS, Starbench, BOTS, apps, SPLASH-2x, numerics,
    PARSEC. *)

val find : string -> Registry.t option
(** The program of that name. *)
