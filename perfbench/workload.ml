(* The benchmark's workloads: which scenario, at which size, driven how,
   and the references its simulated statistics must reproduce. *)

module Iso = Amulet_cc.Isolation
module Scenario = Amulet_fleet_core.Scenario

type runner =
  | Fleet_run  (** [Fleet.run]: every device is [Device.run] *)
  | Gateheavy of { dispatches : int; backlog : int; init_every : int }
      (** per device: [dispatches] rounds of post-one / dispatch-one
          behind [backlog] queued events; every [init_every]-th event
          re-delivers [handle_init], the rest are button presses *)

type t = {
  name : string;
  scenario_file : string;  (** relative to the repository root *)
  devices : int;
  duration_ms : int;
  jobs : int;
  runner : runner;
  reference : string;
      (** aggregate [Fleet.summary_json] bytes for the scenario's own
          seed at this size *)
  button_cycles : (Iso.mode * int) list;
      (** simulated cycles of every back-to-back button dispatch, per
          mode (gateheavy only) *)
}

(* Steady state of the fleet service: many short-lived devices with ~30
   short dispatches each.  Kernel create/boot, the oracle, shard
   recording, the scheduler and cross-domain GC carry most of the host
   work.  Two workers, the size of the host the benchmark was sized
   on. *)
let steady_day =
  {
    name = "steady_day";
    scenario_file = "examples/scenarios/steady_day.fleet";
    devices = 2000;
    duration_ms = 1000;
    jobs = 2;
    runner = Fleet_run;
    reference = "perfbench/reference/steady_day.json";
    button_cycles = [];
  }

(* Few long-lived devices with thousands of short dispatches and a
   standing queue: kernel entry, handler lookup, the event queue and
   MPU context switches dominate, device creation is amortised. *)
let dispatch_storm =
  {
    name = "dispatch_storm";
    scenario_file = "perfbench/dispatch_storm.fleet";
    devices = 8;
    duration_ms = 10000;
    jobs = 1;
    runner = Fleet_run;
    reference = "perfbench/reference/dispatch_storm.json";
    button_cycles = [];
  }

(* Long gate-heavy handlers back-to-back on one device per mode: micro-op
   execution and API gate services do nearly all the work.  The
   occasional short [handle_init] (app churn, as in steady_day) gives
   each mode two handler lengths, so the ledger's host-ns-against-
   cycles fit can separate per-entry cost from per-cycle cost.  The
   per-mode button cycles are BENCH_gateheavy.json's
   cycles_per_dispatch, written by the independent Bench.Runner
   runner. *)
let gateheavy =
  {
    name = "gateheavy";
    scenario_file = "perfbench/gateheavy.fleet";
    devices = 4;
    duration_ms = 5;
    jobs = 1;
    runner = Gateheavy { dispatches = 1500; backlog = 4; init_every = 16 };
    reference = "perfbench/reference/gateheavy.json";
    button_cycles =
      [
        (Iso.No_isolation, 2189);
        (Iso.Feature_limited, 2061);
        (Iso.Software_only, 2244);
        (Iso.Mpu_assisted, 3150);
      ];
  }

let all = [ steady_day; dispatch_storm; gateheavy ]
let find name = List.find_opt (fun w -> w.name = name) all

(* A repository-relative path, from [root] (default: the current
   directory). *)
let path ?root p = match root with Some r -> Filename.concat r p | None -> p

(* The scenario file with the workload's size applied: the parse step
   of the benchmark's set-up. *)
let load ?root w =
  let file = path ?root w.scenario_file in
  match Scenario.of_file file with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok s ->
    Ok { s with Scenario.sc_devices = w.devices; sc_duration_ms = w.duration_ms }

let mode_slug = function
  | Iso.No_isolation -> "none"
  | Iso.Feature_limited -> "amuletc"
  | Iso.Software_only -> "software"
  | Iso.Mpu_assisted -> "mpu"

let mode_index m =
  let rec go i = function
    | [] -> invalid_arg "mode_index"
    | x :: tl -> if x = m then i else go (i + 1) tl
  in
  go 0 Iso.all
