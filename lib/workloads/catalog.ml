(* The whole registry: the 71 programs of every suite, in the order
   `discopop list` prints them, and one of them by name. *)

let all : Registry.t list =
  Textbook.all @ Nas.all @ Starbench.all @ Bots.all @ Apps.all @ Splash2x.all
  @ Numerics.all @ Parsec.all

let find name = List.find_opt (fun (w : Registry.t) -> w.name = name) all
