(* The DiscoPoP command-line tool: profile MIL workloads, construct CUs,
   discover and rank parallelism, and hunt for races — the user-facing
   counterpart of the paper's three-phase workflow (Fig. 1.3). The commands
   live by layer in Cmd_analysis, Cmd_transform, Cmd_service and Cmd_gates;
   the flags they share, in Terms. *)

let () =
  let doc = "DiscoPoP: discovery of potential parallelism in sequential programs" in
  let info = Cmdliner.Cmd.info "discopop" ~version:"1.0.0" ~doc in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          (Cmd_analysis.cmds @ Cmd_transform.cmds @ Cmd_service.cmds
         @ Cmd_gates.cmds)))
