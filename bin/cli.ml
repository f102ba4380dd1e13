(* Command-line plumbing shared by every [amulet] subcommand: the
   isolation-mode converter, the APP resolver, the common options and
   the exit-code convention.

   Exit codes, everywhere:
     0  ok
     1  a finding — regression, violation, error diagnostic, unsound
        bound, rejected image
     2  usage error or unusable input — bad option value, missing or
        unreadable file, source that does not build *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Apps = Amulet_apps.Suite
open Cmdliner

let exit_finding = 1
let exit_usage = 2

(* Raised for a usage error or unusable input detected after option
   parsing; [guard] prints the message and exits 2. *)
exception Usage of string

let usage fmt = Format.kasprintf (fun msg -> raise (Usage msg)) fmt

(* Run a subcommand body, mapping input errors to exit 2. *)
let guard body =
  try body () with
  | Usage msg | Sys_error msg ->
    Format.eprintf "%s@." msg;
    exit_usage
  | Aft.Build_error msg ->
    Format.eprintf "build error: %s@." msg;
    exit_usage
  | Amulet_cc.Srcloc.Error (loc, msg) ->
    Format.eprintf "error at %a: %s@." Amulet_cc.Srcloc.pp loc msg;
    exit_usage

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info exit_finding
      ~doc:
        "on a finding: a regression, an isolation violation, an \
         error-severity diagnostic or an unsound bound.";
    Cmd.Exit.info exit_usage
      ~doc:"on a usage error or an unreadable or unbuildable input.";
  ]

(* A subcommand whose term yields its body as a thunk. *)
let cmd name ~doc term =
  Cmd.v (Cmd.info name ~doc ~exits) Term.(const guard $ term)

(* cmdliner reports its own parse errors as [Cmd.Exit.cli_error]; fold
   them into the usage code. *)
let eval cmd =
  let code = Cmd.eval' cmd in
  if code = Cmd.Exit.cli_error then exit_usage else code

(* ------------------------------------------------------------------ *)
(* Isolation modes *)

let mode_conv =
  let parse s =
    match Iso.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "expected one of: none, amuletc, software, mpu")
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Iso.name m))

let mode =
  Arg.(
    value
    & opt mode_conv Iso.Mpu_assisted
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Isolation mode: $(b,none), $(b,amuletc) (feature-limited), \
           $(b,software), or $(b,mpu).")

(* Repeatable [-m]; the empty list means the subcommand's default set. *)
let modes ~doc =
  Arg.(value & opt_all mode_conv [] & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

(* ------------------------------------------------------------------ *)
(* Applications: a suite app name, else a WearC source path *)

let app_name_of_path path =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '_')
    (Filename.remove_extension (Filename.basename path))

let spec_of mode arg =
  match Apps.find arg with
  | app -> Apps.spec_for mode app
  | exception Not_found ->
    {
      Aft.name = app_name_of_path arg;
      source = In_channel.with_open_bin arg In_channel.input_all;
    }

let apps =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"APP"
        ~doc:
          "Suite app name (e.g. $(b,pedometer)) or path to a WearC source \
           file.")

let no_elide =
  Arg.(
    value & flag
    & info [ "no-elide" ]
        ~doc:"Compile with every guard emitted (skip the range analysis).")

let shadow =
  Arg.(
    value & flag
    & info [ "shadow" ] ~doc:"Arm the InfoMem shadow return-address stack.")

let build ?(no_elide = false) ?(shadow = false) mode args =
  Aft.build ~mode ~shadow ~elide:(not no_elide) (List.map (spec_of mode) args)

(* ------------------------------------------------------------------ *)
(* Common options *)

let format =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,human) or $(b,json).")

let out ?(names = [ "out" ]) ~doc () =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let jobs =
  Arg.(
    value
    & opt int (Amulet_fleet_core.Sched.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains.  The default is Fleet.Sched.default_jobs: the \
           host's recommended domain count, at most 8 ($(b,0) means the \
           same).")

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Amulet_obs.Json.to_string json);
      output_char oc '\n')
