(* Race finder: profile a multi-threaded target program (§2.3.4) and report
   timestamp-reversal race candidates, then the happens-before verdict
   validation uses, plus the thread-to-thread communication matrix (§5.3).

   Run with:  dune exec examples/race_finder.exe *)

(* Two threads update a shared counter; unless [locked], one path forgets
   the lock. *)
let counter ~locked =
  let open Mil.Builder in
  (* A fresh statement per use: [number] writes each statement's line. *)
  let bump () = set "hits" (v "hits" + i 1) in
  number
    (program ~entry:"main" "buggy_counter" ~globals:[ gscalar "hits" 0 ]
       [ func "main"
           [ par
               [ (* correct: locked update *)
                 [ for_ "k" (i 0) (i 50) [ lock "m"; bump (); unlock "m" ] ];
                 (* buggy unless [locked]: unlocked update *)
                 [ for_ "k" (i 0) (i 50)
                     (if locked then [ lock "m"; bump (); unlock "m" ]
                      else [ bump () ]) ] ];
             return (v "hits") ] ])

let buggy_counter = counter ~locked:false

let print_races ?(none = "(none)") races =
  List.iter
    (fun (var, l1, l2) ->
      Printf.printf "  %s between lines %d and %d\n" var l1 l2)
    races;
  if races = [] then print_endline ("  " ^ none)

let () =
  print_string (Mil.Pretty.render_program buggy_counter);
  (* Scrambling unlocked pushes models the access/push atomicity violation
     the paper exploits to expose unordered accesses. *)
  let found = ref [] in
  List.iter
    (fun seed ->
      let r = Profiler.Serial.profile ~scramble_unlocked:true ~seed buggy_counter in
      List.iter
        (fun race -> if not (List.mem race !found) then found := race :: !found)
        r.Profiler.Serial.races)
    [ 1; 2; 3; 4; 5 ];
  Printf.printf "\npotential data races (var, line-a, line-b):\n";
  print_races ~none:"(none found on these schedules)" (List.sort compare !found);

  (* Happens-before needs no scrambled schedule: two conflicting accesses
     that no fork, join, lock, barrier or atomic orders are a race in the
     one run, wherever its threads were interleaved. *)
  let hb prog =
    Profiler.Happens_before.races (fst (Profiler.Happens_before.run prog))
  in
  Printf.printf "\nhappens-before races (one run, seed 42):\n";
  print_races (hb buggy_counter);
  Printf.printf "happens-before races with both arms locked:\n";
  print_races (hb (counter ~locked:true));

  (* Communication matrix of a correctly locked parallel workload. *)
  let kmeans =
    List.find
      (fun (w : Workloads.Registry.t) -> w.Workloads.Registry.name = "kmeans-par")
      Workloads.Starbench.all
  in
  let r =
    Profiler.Serial.profile (Workloads.Registry.program ~size:120 kmeans)
  in
  let m = Apps.Comm.of_deps r.Profiler.Serial.deps in
  Printf.printf "\nkmeans-par communication pattern: %s\n"
    (Apps.Comm.pattern_to_string (Apps.Comm.classify m));
  print_string (Apps.Comm.render m)
