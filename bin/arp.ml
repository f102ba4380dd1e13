(* amulet arp: the resource-profiler report — per-handler measured costs,
   static check-site counts, weekly extrapolation and battery impact,
   per isolation mode. *)

module Iso = Amulet_cc.Isolation
module Arp = Amulet_arp.Arp
module Energy = Amulet_arp.Energy
module Apps = Amulet_apps.Suite

let run app_name warmup () =
  match Apps.find app_name with
  | exception Not_found ->
    Cli.usage "unknown app %s; known: %s" app_name
      (String.concat ", " (List.map (fun a -> a.Apps.name) Apps.all))
  | app ->
    let baseline =
      Arp.profile_app ~warmup_ms:warmup ~mode:Iso.No_isolation app
    in
    Format.printf "ARP report for %s (%d ms warm-up)@." app.Apps.display_name
      warmup;
    List.iter
      (fun mode ->
        let p =
          if mode = Iso.No_isolation then baseline
          else Arp.profile_app ~warmup_ms:warmup ~mode app
        in
        Format.printf "@.[%s]@." (Iso.name mode);
        List.iter
          (fun h ->
            Format.printf
              "  %-20s %10.0f ev/week  %7.1f cyc/ev  %6.1f accesses  %4.1f \
               API calls@."
              h.Arp.hp_handler h.Arp.hp_events_per_week h.Arp.hp_cycles_per_event
              h.Arp.hp_accesses_per_event h.Arp.hp_api_calls_per_event)
          p.Arp.ap_handlers;
        let overhead = Arp.overhead_cycles_per_week ~baseline p in
        Format.printf
          "  weekly: %.3f Gcycles total, %.3f Gcycles isolation overhead, \
           %.4f %% battery@."
          (p.Arp.ap_cycles_per_week /. 1e9)
          (overhead /. 1e9)
          (Energy.battery_impact_percent ~overhead_cycles_per_week:overhead);
        (* ARP-view per-state accounting, when the app has a state
           machine *)
        (match p.Arp.ap_states with
        | [] -> ()
        | states ->
          Format.printf "  per-state accounting (ARP-view):@.";
          List.iter
            (fun ((state, handler), (s : Amulet_os.Kernel.handler_stats)) ->
              let n = max 1 s.hs_count in
              Format.printf
                "    state %d / %-16s %5d events, avg %5d cycles, %4d accesses@."
                state handler s.hs_count (s.hs_cycles / n)
                ((s.hs_reads + s.hs_writes) / n))
            states);
        Format.printf "  static check sites (AFT phase 1):@.";
        List.iter
          (fun s ->
            Format.printf "    %-24s %3d checked, %3d elided, %3d static, %2d API@."
              s.Arp.ss_function s.Arp.ss_checked s.Arp.ss_elided
              s.Arp.ss_static s.Arp.ss_api_calls)
          p.Arp.ap_sites)
      Iso.all;
    0

open Cmdliner

let app_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Suite app name (e.g. $(b,pedometer)).")

let warmup_arg =
  Arg.(
    value & opt int 90_000
    & info [ "warmup" ] ~docv:"MS" ~doc:"Profiling warm-up in virtual ms.")

let cmd =
  Cli.cmd "arp" ~doc:"Amulet Resource Profiler report for one application"
    Term.(const run $ app_arg $ warmup_arg)
