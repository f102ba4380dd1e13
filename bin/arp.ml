(* amulet arp: the resource-profiler report — per-handler measured costs,
   static check-site counts, weekly extrapolation and battery impact,
   per isolation mode. *)

module Iso = Amulet_cc.Isolation
module Arp = Amulet_arp.Arp
module Energy = Amulet_arp.Energy
module Apps = Amulet_apps.Suite
module Obs = Amulet_obs.Obs

(* Profile one mode while collecting the kernel's dispatch spans in
   memory, then hand back both the ARP aggregate and those spans. *)
let profile_with_trace ~warmup ~mode app =
  let obs = Obs.create () in
  let spans = ref [] in
  Obs.add_sink obs
    {
      Obs.output =
        (function
        | Obs.Span { cat = "dispatch"; _ } as r -> spans := r :: !spans
        | _ -> ());
      close = ignore;
    };
  let p = Arp.profile_app ~warmup_ms:warmup ~obs ~mode app in
  Obs.close obs;
  (p, List.rev !spans)

(* ARP-view per-state accounting, recovered from the spans: each
   dispatch span is attributed to the value of the app's [state]
   global when the event arrived. *)
let per_state_accounting records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | Obs.Span { name = handler; cat = "dispatch"; dur; _ } -> (
        match Obs.int_arg r "state" with
        | None -> ()
        | Some state ->
          let count, cycles, accesses =
            Option.value
              (Hashtbl.find_opt tbl (state, handler))
              ~default:(0, 0, 0)
          in
          let reads = Option.value (Obs.int_arg r "reads") ~default:0 in
          let writes = Option.value (Obs.int_arg r "writes") ~default:0 in
          Hashtbl.replace tbl (state, handler)
            (count + 1, cycles + dur, accesses + reads + writes))
      | _ -> ())
    records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let run app_name warmup () =
  match Apps.find app_name with
  | exception Not_found ->
    Cli.usage "unknown app %s; known: %s" app_name
      (String.concat ", " (List.map (fun a -> a.Apps.name) Apps.all))
  | app ->
    let baseline, baseline_records =
      profile_with_trace ~warmup ~mode:Iso.No_isolation app
    in
    Format.printf "ARP report for %s (%d ms warm-up)@." app.Apps.display_name
      warmup;
    List.iter
      (fun mode ->
        let p, records =
          if mode = Iso.No_isolation then (baseline, baseline_records)
          else profile_with_trace ~warmup ~mode app
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
           machine — read back from the same run's dispatch spans *)
        (match per_state_accounting records with
        | [] -> ()
        | states ->
          Format.printf "  per-state accounting (ARP-view):@.";
          List.iter
            (fun ((state, handler), (count, cycles, accesses)) ->
              Format.printf
                "    state %d / %-16s %5d events, avg %5d cycles, %4d accesses@."
                state handler count
                (cycles / max 1 count)
                (accesses / max 1 count))
            states);
        Format.printf "  static check sites (AFT phase 1):@.";
        List.iter
          (fun s ->
            Format.printf "    %-24s %3d checked, %3d elided, %3d static, %2d API@."
              s.Arp.ss_function s.Arp.ss_checked s.Arp.ss_elided
              s.Arp.ss_static s.Arp.ss_api_calls)
          (Arp.static_view ~mode app))
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
