(* amulet verify: build a firmware from WearC sources (or suite app
   names), reconstruct each app code section's CFG and run the
   independent SFI verifier over it.  Exit status 1 when any app is
   rejected — the verifier is the final gate a firmware passes before
   it is trusted to run alongside the OS. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module V = Amulet_analysis.Verifier
module Cfi = Amulet_analysis.Cfi

(* CFI first: the verifier runs over the graph it certifies, and a
   rejected graph is reported on the verifier's own lines. *)
let verdict image ~mode ~prefix =
  match Cfi.reconstruct ~image ~mode ~prefix with
  | Ok cfg -> V.verify ~cfg
  | Error cvs ->
    Error
      (List.map
         (fun (c : Cfi.violation) ->
           { V.vaddr = c.cv_addr; vtext = c.cv_text; vreason = c.cv_reason })
         cvs)

let run mode no_elide shadow corrupt apps () =
  let fw = Cli.build ~no_elide ~shadow mode apps in
  Format.printf "isolation mode: %s%s%s@." (Iso.name mode)
    (if shadow then " + shadow stack" else "")
    (if no_elide then "" else " (elision on)");
  let image =
    match fw.Aft.fw_apps with
    | ab :: _ when corrupt -> (
      match
        Amulet_sec.Attacks.corrupt_guard fw.Aft.fw_image ~prefix:ab.Aft.ab_name
      with
      | Some (a, image) ->
        Format.printf "corrupted guard immediate at %04X in app %s@." a
          ab.Aft.ab_name;
        image
      | None ->
        Format.printf "no guard found to corrupt@.";
        fw.Aft.fw_image)
    | _ -> fw.Aft.fw_image
  in
  let bad = ref 0 in
  List.iter
    (fun ab ->
      let name = ab.Aft.ab_name in
      match verdict image ~mode ~prefix:name with
      | Ok st -> Format.printf "%-12s OK   %a@." name V.pp_stats st
      | Error vs ->
        incr bad;
        Format.printf "%-12s REJECTED (%d violations)@." name
          (List.length vs);
        List.iter (fun v -> Format.printf "  %a@." V.pp_violation v) vs)
    fw.Aft.fw_apps;
  Format.printf "%d of %d app(s) verified@."
    (List.length fw.Aft.fw_apps - !bad)
    (List.length fw.Aft.fw_apps);
  if !bad = 0 then 0 else 1

open Cmdliner

let corrupt_arg =
  Arg.(
    value & flag
    & info [ "corrupt" ]
        ~doc:
          "Zero the first lower-bound guard immediate before verifying — \
           demonstrates rejection of a tampered image.")

let cmd =
  Cli.cmd "verify" ~doc:"verify the SFI invariant of a built firmware image"
    Term.(
      const run $ Cli.mode $ Cli.no_elide $ Cli.shadow $ corrupt_arg
      $ Cli.apps)
