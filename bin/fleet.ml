(* amulet fleet: fleet-scale simulation service.  Parses a scenario
   file, instantiates N independent Machine+Kernel devices across
   worker domains, drives each with deterministic seeded event
   traffic, and merges the per-domain shards into one aggregate
   summary (per-mode p50/p99 dispatch + latency cycles, faults/sec,
   cycles/sec, energy).  Exits 1 on any isolation-oracle violation
   anywhere in the fleet. *)

module Fleet = Amulet_fleet_core.Fleet
module Scenario = Amulet_fleet_core.Scenario
module Json = Amulet_obs.Json

let override scenario devices duration seed =
  let s = scenario in
  let s =
    match devices with Some d -> { s with Scenario.sc_devices = d } | None -> s
  in
  let s =
    match duration with
    | Some d -> { s with Scenario.sc_duration_ms = d }
    | None -> s
  in
  match seed with Some v -> { s with Scenario.sc_seed = v } | None -> s

let progress_bar () =
  let last = ref (-1) in
  fun ~done_ ~total ->
    (* redraw at most once per percent: the callback runs under the
       scheduler's lock on the worker that finished the batch *)
    let pct = done_ * 100 / max 1 total in
    if pct <> !last then begin
      last := pct;
      Printf.eprintf "\rfleet: %d/%d devices (%d%%)%!" done_ total pct;
      if done_ = total then prerr_newline ()
    end

let run_one ~jobs ~progress scenario =
  Fleet.run ~jobs
    ?progress:(if progress then Some (progress_bar ()) else None)
    scenario

let run file devices duration seed jobs out progress scaling () =
  match Scenario.parse (In_channel.with_open_text file In_channel.input_all) with
  | Error e -> Cli.usage "%s: %s" file e
  | Ok scenario -> (
    let scenario = override scenario devices duration seed in
    Format.printf "%a@." Scenario.pp scenario;
    match scaling with
    | [] ->
      let s = run_one ~jobs ~progress scenario in
      Format.printf "%a" Fleet.pp s;
      (match out with
      | Some path ->
        Cli.write_json path (Fleet.summary_json s);
        Format.printf "aggregate summary written to %s@." path
      | None -> ());
      if Fleet.ok s then 0 else 1
    | counts ->
      (* domain-scaling sweep: same scenario+seed at each job count;
         the aggregates must be bit-identical, only wall time moves *)
      let runs =
        List.map (fun j -> (j, run_one ~jobs:j ~progress scenario)) counts
      in
      let reference = Json.to_string (Fleet.summary_json (snd (List.hd runs))) in
      let identical =
        List.for_all
          (fun (_, s) -> Json.to_string (Fleet.summary_json s) = reference)
          runs
      in
      let base_elapsed = (snd (List.hd runs)).Fleet.fs_elapsed_s in
      Format.printf "@.domain scaling (%s, %d devices):@."
        scenario.Scenario.sc_name scenario.Scenario.sc_devices;
      Format.printf "  %8s %10s %14s %9s@." "jobs" "wall s" "devices/sec"
        "speedup";
      List.iter
        (fun (j, s) ->
          Format.printf "  %8d %10.2f %14.1f %8.2fx@." j s.Fleet.fs_elapsed_s
            (float s.Fleet.fs_devices /. max 1e-9 s.Fleet.fs_elapsed_s)
            (base_elapsed /. max 1e-9 s.Fleet.fs_elapsed_s))
        runs;
      Format.printf "  aggregates %s across job counts@."
        (if identical then "bit-identical" else "DIFFER");
      if (not identical) || not (List.for_all (fun (_, s) -> Fleet.ok s) runs)
      then 1
      else 0)

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO" ~doc:"Scenario file (see examples/scenarios/).")

let devices_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "devices" ] ~docv:"N" ~doc:"Override the scenario's fleet size.")

let duration_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "duration-ms" ] ~docv:"MS"
        ~doc:"Override the scenario's per-device virtual duration.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the scenario's base seed.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Report device completion on stderr.")

let scaling_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "scaling" ] ~docv:"J1,J2,.."
        ~doc:
          "Run the same scenario at each domain count, print the \
           devices/sec scaling table, and verify the aggregates are \
           bit-identical.")

let cmd =
  Cli.cmd "fleet" ~doc:"fleet-scale wearable simulation service"
    Term.(
      const run $ file_arg $ devices_arg $ duration_arg $ seed_arg $ Cli.jobs
      $ Cli.out
          ~doc:
            "Write the deterministic aggregate-summary JSON to $(docv) \
             (bit-identical for a fixed scenario+seed)."
          ()
      $ progress_arg $ scaling_arg)
