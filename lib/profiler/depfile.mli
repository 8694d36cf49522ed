(** On-disk dependence files: the merged dependences phase 2 reads back
    (§1.5). Runtime merging is what shrinks these files from gigabytes to
    kilobytes (§2.3.5). *)

exception Parse_error of string

val render : Dep.Set_.t -> string
val write : string -> Dep.Set_.t -> unit
val parse : string -> Dep.Set_.t

val read : string -> Dep.Set_.t
(** @raise Parse_error on malformed input. *)

(** File sizes with and without runtime merging — every dynamic instance
    would otherwise be its own record. *)
type sizes = { merged_bytes : int; unmerged_bytes : int; reduction : float }

val measure : Dep.Set_.t -> sizes
