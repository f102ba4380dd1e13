(* amulet attack: run the adversarial attack & fault-injection
   campaign — every corpus attack under every isolation mode, each
   cell checked against its documented expectation by the isolation
   oracle.  Exits non-zero on any expectation mismatch, oracle
   violation, static-lint surprise or non-reproducible injection. *)

module Iso = Amulet_cc.Isolation
module Sec = Amulet_sec

let run quick seed jobs out only modes list () =
  if list then begin
    List.iter
      (fun (a : Sec.Attacks.t) ->
        Format.printf "%-24s %-6s %s@." a.Sec.Attacks.atk_name
          (match a.Sec.Attacks.atk_level with
          | Sec.Attacks.Source -> "source"
          | Sec.Attacks.Binary -> "binary")
          a.Sec.Attacks.atk_descr)
      Sec.Attacks.corpus;
    0
  end
  else begin
    let modes = if modes = [] then Iso.all else modes in
    let summary = Sec.Campaign.run ~quick ~jobs ~only ~modes ~seed () in
    Format.printf "%a" Sec.Campaign.pp_matrix summary;
    (match out with
    | Some path ->
      Out_channel.with_open_text path (Sec.Campaign.emit_jsonl summary);
      Format.printf "campaign records written to %s@." path
    | None -> ());
    if Sec.Campaign.ok summary then 0 else 1
  end

open Cmdliner

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "CI smoke subset: one attack per defence class, no injection \
           rows.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Campaign seed (fault-injection schedules, sensor streams).")

let only_arg =
  Arg.(
    value & opt_all string []
    & info [ "only" ] ~docv:"ATTACK"
        ~doc:"Restrict to the named attack (repeatable).")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"List the attack corpus and exit.")

let cmd =
  Cli.cmd "attack" ~doc:"adversarial attack & fault-injection campaign"
    Term.(
      const run $ quick_arg $ seed_arg $ Cli.jobs
      $ Cli.out ~doc:"Write one JSONL campaign record per cell to $(docv)." ()
      $ only_arg
      $ Cli.modes
          ~doc:"Restrict to one isolation mode (repeatable; default all)."
      $ list_arg)
