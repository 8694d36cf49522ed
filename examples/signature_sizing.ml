(* Signature sizing: use Equation 2.2 to pick a signature size for a target
   accuracy, then verify the prediction against measurement — the §2.5.1
   methodology, interactively.

   Run with:  dune exec examples/signature_sizing.exe *)

module Dep = Profiler.Dep

let () =
  let w =
    List.find
      (fun (w : Workloads.Registry.t) -> w.Workloads.Registry.name = "c-ray")
      Workloads.Starbench.all
  in
  let prog = Workloads.Registry.program w in

  (* 1. count distinct addresses with a cheap pre-pass *)
  let seen = Hashtbl.create 4096 in
  let _ =
    Mil.Interp.run
      ~on_access:(fun ~kind:_ ~addr ~var:_ ~line:_ ~thread:_ ~time:_ ~op:_
          ~lstack:_ ~locked:_ -> Hashtbl.replace seen addr ())
      prog
  in
  let addresses = Hashtbl.length seen in
  Printf.printf "c-ray touches %d distinct addresses\n\n" addresses;

  (* 2. Eq. 2.2: predicted slot-collision probability per signature size *)
  print_endline "slots      predicted P(collision)   measured FPR (weighted)";
  let truth = (Profiler.Serial.profile ~shadow:Profiler.Engine.Perfect prog).deps in
  List.iter
    (fun slots ->
      let predicted = Sigmem.Signature.predicted_fpr ~slots ~addresses in
      let r =
        Profiler.Serial.profile ~shadow:(Profiler.Engine.Signature slots) prog
      in
      let fpr, _ = Dep.Set_.accuracy_weighted ~truth ~got:r.deps in
      Printf.printf "%-10d %-24.4f %.4f\n" slots predicted fpr)
    [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000 ];

  (* 3. pick the smallest size whose prediction is under 1% *)
  let rec pick slots =
    if Sigmem.Signature.predicted_fpr ~slots ~addresses < 0.01 then slots
    else pick (2 * slots)
  in
  let chosen = pick 1_024 in
  Printf.printf
    "\nfor <1%% predicted collisions, Eq. 2.2 suggests %d slots (%d KB)\n"
    chosen (chosen * 2 * 8 / 1024);
  let r =
    Profiler.Serial.profile ~shadow:(Profiler.Engine.Signature chosen) prog
  in
  let fpr, fnr = Dep.Set_.accuracy_weighted ~truth ~got:r.deps in
  Printf.printf "measured at that size: FPR %.4f, FNR %.4f\n" fpr fnr;
  print_endline
    "(measurements beat the prediction: Eq. 2.2 assumes all addresses stay\n\
    \ live, while variable-lifetime analysis keeps clearing dead slots)"
