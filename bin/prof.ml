(* amulet prof: read a trace written by `amulet sim --trace` (Chrome
   trace_event JSON or JSONL) and print reports:

     report  — span statistics (count/total/avg/p50/p99/max), counter
               maxima/percentiles, instant counts, faults
     energy  — cycle-exact energy attribution per PC class, recovered
               from the profile.<class>.cycles counters the kernel
               publishes at every dispatch boundary, with a weekly
               battery-impact extrapolation

   JSONL traces stream through the aggregator line by line, so
   arbitrarily long runs are summarised in constant memory. *)

module Agg = Amulet_obs.Agg
module Profile = Amulet_obs.Profile
module Energy = Amulet_arp.Energy

let with_trace file f () =
  let agg =
    try In_channel.with_open_bin file Agg.of_channel
    with Amulet_obs.Json.Parse_error msg ->
      Cli.usage "%s: malformed trace: %s" file msg
  in
  if Agg.records agg = 0 then Cli.usage "%s: no trace records found" file;
  f agg

let report file =
  with_trace file (fun agg ->
      Format.printf "%a" Agg.pp agg;
      0)

(* Final value of each profile.<class>.cycles counter = the class's
   cumulative cycle total at the last dispatch of the trace.  Classes
   whose counter the trace never carried (older recordings predate
   some categories) come back in [missing] so the report can say the
   attribution is partial instead of silently attributing 0. *)
let class_cycles agg =
  List.partition_map
    (fun c ->
      match Agg.counter agg (Profile.counter_name c) with
      | Some cnt -> Left (c, cnt.Agg.c_last)
      | None -> Right c)
    Profile.categories

let energy file =
  with_trace file (fun agg ->
      match class_cycles agg with
      | [], _ ->
        Cli.usage
          "%s: no profile.<class>.cycles counters — record the trace with \
           `amulet sim --profile --trace ...`"
          file
      | cats, missing ->
        let total_cycles = List.fold_left (fun a (_, c) -> a + c) 0 cats in
        let energies = Energy.per_category cats in
        Format.printf "energy attribution (%d attributed cycles, %.1f ms at \
                       %.0f MHz):@."
          total_cycles
          (float_of_int total_cycles /. Energy.clock_hz *. 1e3)
          (Energy.clock_hz /. 1e6);
        let joules_str j = Format.asprintf "%a" Energy.pp_joules j in
        List.iter
          (fun ((cat, cycles), (_, joules)) ->
            Format.printf "  %-14s %12d cycles  %12s  (%5.1f %%)@."
              (Profile.category_name cat)
              cycles (joules_str joules)
              (if total_cycles = 0 then 0.0
               else 100.0 *. float_of_int cycles /. float_of_int total_cycles))
          (List.combine cats energies);
        let overhead_j = Energy.isolation_overhead_joules cats in
        let overhead_cycles =
          List.fold_left
            (fun acc (c, cycles) ->
              if List.mem c Energy.overhead_categories then acc + cycles
              else acc)
            0 cats
        in
        Format.printf "  %-14s %12d cycles  %12s  (isolation overhead)@."
          "guards+gates+MPU" overhead_cycles (joules_str overhead_j);
        if missing <> [] then
          Format.printf
            "warning: trace carries no counter for: %s — attribution is \
             partial (older trace format?)@."
            (String.concat ", " (List.map Profile.category_name missing));
        (* extrapolate the overhead share to a week of wall time *)
        (match Agg.time_range agg with
        | Some (lo, hi) when hi > lo ->
          let elapsed = float_of_int (hi - lo) in
          let per_week =
            float_of_int overhead_cycles *. Energy.cycles_per_week /. elapsed
          in
          Format.printf
            "projected isolation overhead: %.3f Gcycles/week, battery impact \
             %.4f %% (paper bound: < 0.5 %%)@."
            (per_week /. 1e9)
            (Energy.battery_impact_percent ~overhead_cycles_per_week:per_week)
        | _ -> ());
        0)

open Cmdliner

let file =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"Trace file (Chrome JSON or JSONL).")

let cmd =
  Cmd.group
    (Cmd.info "prof" ~doc:"inspect amulet sim execution traces")
    [
      Cli.cmd "report"
        ~doc:"aggregate a trace into per-span/counter statistics"
        Term.(const report $ file);
      Cli.cmd "energy"
        ~doc:"attribute energy to PC classes from a profiled trace"
        Term.(const energy $ file);
    ]
