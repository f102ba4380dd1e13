(* amulet verify: build a firmware from WearC sources (or suite app
   names) and run the independent SFI verifier over every app code
   section.  Exit status 1 when any app is rejected — the verifier is
   the final gate a firmware passes before it is trusted to run
   alongside the OS. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module V = Amulet_analysis.Verifier

(* Demonstration mutant: zero the immediate of the first lower-bound
   guard comparison in the app's code section, the binary equivalent
   of a compiler that forgot (or was tricked out of) a bounds check. *)
let corrupt_guard image ~prefix =
  let module I = Amulet_link.Image in
  let module O = Amulet_mcu.Opcode in
  let code_lo = I.symbol image (Iso.code_lo_sym ~prefix) in
  let code_hi = I.symbol image (Iso.code_hi_sym ~prefix) in
  let data_lo = I.symbol image (Iso.data_lo_sym ~prefix) in
  let fetch a =
    let rec go = function
      | [] -> 0
      | (base, b) :: rest ->
        if a >= base && a + 1 < base + Bytes.length b then
          Char.code (Bytes.get b (a - base))
          lor (Char.code (Bytes.get b (a - base + 1)) lsl 8)
        else go rest
    in
    go image.I.chunks
  in
  let poke a v =
    List.iter
      (fun (base, b) ->
        if a >= base && a + 1 < base + Bytes.length b then begin
          Bytes.set b (a - base) (Char.chr (v land 0xFF));
          Bytes.set b (a - base + 1) (Char.chr ((v lsr 8) land 0xFF))
        end)
      image.I.chunks
  in
  let rec scan a =
    if a >= code_hi then None
    else
      match Amulet_mcu.Decode.decode ~fetch ~addr:a with
      | exception Amulet_mcu.Decode.Illegal _ -> scan (a + 2)
      | O.Fmt1 (O.CMP, _, O.S_immediate k, O.D_reg r), _
        when k land 0xFFFF = data_lo && r >= 4 ->
        poke (a + 2) 0;
        Some a
      | _, size -> scan (a + size)
  in
  scan code_lo

let run mode no_elide shadow corrupt apps () =
  let fw = Cli.build ~no_elide ~shadow mode apps in
  Format.printf "isolation mode: %s%s%s@." (Iso.name mode)
    (if shadow then " + shadow stack" else "")
    (if no_elide then "" else " (elision on)");
  (if corrupt then
     match fw.Aft.fw_apps with
     | ab :: _ -> (
       match corrupt_guard fw.Aft.fw_image ~prefix:ab.Aft.ab_name with
       | Some a ->
         Format.printf "corrupted guard immediate at %04X in app %s@." a
           ab.Aft.ab_name
       | None -> Format.printf "no guard found to corrupt@.")
     | [] -> ());
  let bad = ref 0 in
  List.iter
    (fun ab ->
      let name = ab.Aft.ab_name in
      match V.verify_app ~image:fw.Aft.fw_image ~mode ~prefix:name with
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
