(* amulet: the one front door.  Every tool of the toolchain — compiler,
   simulator, certifiers, proof engine, attack campaign, fleet service,
   trace and resource profilers, benchmark runner and the paper
   reproduction — is a subcommand sharing the plumbing in [Cli]. *)

let () =
  let info =
    Cmdliner.Cmd.info "amulet" ~exits:Cli.exits
      ~doc:"build, check, run and measure Amulet applications"
  in
  exit
    (Cli.eval
       (Cmdliner.Cmd.group info
          [
            Cc.cmd; Sim.cmd; Objdump.cmd; Verify.cmd; Lint.cmd; Wcet.cmd;
            Prove.cmd; Attack.cmd; Fleet.cmd; Prof.cmd; Arp.cmd; Bench.cmd;
            Repro.cmd;
          ]))
