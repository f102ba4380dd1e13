(* Benchmark entry point, run from the repository root:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one detail record (host facts, raw trials, checks, ledger
   table) and then, as the last line, the result object with exactly
   the keys correct, attempted, failed and metrics.  --trace 0 reports
   the end-to-end metrics, --trace 1 the per-layer ledger and writes
   the traced run's spans under perfbench/traces/.  Exit 2 on a usage
   error or when the repository's inputs cannot be read. *)

module Json = Amulet_obs.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload steady_day|dispatch_storm|gateheavy --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: tl ->
      workload := Workload.find v;
      if !workload = None then usage ();
      parse tl
    | "--seed" :: v :: tl ->
      seed := int_of_string_opt v;
      parse tl
    | "--seconds" :: v :: tl ->
      seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None);
      parse tl
    | "--trace" :: ("0" | "1" as v) :: tl ->
      trace := Some (v = "1");
      parse tl
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (
    match
      if trace then Harness.run_traced w ~seed ~seconds
      else Harness.run_e2e w ~seed ~seconds
    with
    | r ->
      print_endline (Json.to_string r.Harness.detail);
      print_endline (Harness.result_line r)
    | exception (Failure e | Sys_error e) ->
      prerr_endline ("perfbench: " ^ e);
      exit 2)
  | _ -> usage ()
