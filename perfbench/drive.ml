(* Device runs and whole-fleet runs, built only from the public
   calls that [Device.run] and [Fleet.run] make.

   The untraced fleet trial is [Fleet.run] itself.  The traced replay
   re-runs the same devices with a span around every call into the
   kernel and the fleet layer, and must reproduce [Device.run]'s
   result device for device ([check_devices]) and [Fleet.run]'s
   aggregate byte for byte — that equality guards the copy of the
   device traffic generator below.  The gateheavy device loop is the same
   code traced or not. *)

module Aft = Amulet_aft.Aft
module M = Amulet_mcu.Machine
module Kernel = Amulet_os.Kernel
module Event = Amulet_os.Event
module Event_queue = Amulet_os.Event_queue
module Hist = Amulet_obs.Hist
module Json = Amulet_obs.Json
module Suite = Amulet_apps.Suite
module Scenario = Amulet_fleet_core.Scenario
module Device = Amulet_fleet_core.Device
module Fleet = Amulet_fleet_core.Fleet
module Sched = Amulet_fleet_core.Sched
module Rng = Scenario.Rng

(* --- set-up ------------------------------------------------------- *)

(* One firmware per mode of the mix, the same [Aft.build] calls
   [Fleet.run] makes. *)
let build_firmware ?sp ~parent scenario =
  List.map
    (fun (m, _) ->
      ( m,
        Spans.with_span sp Spans.Build ~parent ~id:(-1)
          ~tag:(Workload.mode_index m) (fun () ->
            Aft.build ~mode:m
              (List.map
                 (fun name -> Suite.spec_for m (Suite.find name))
                 scenario.Scenario.sc_apps)) ))
    (Scenario.mode_devices scenario)

(* The benchmark's set-up: parse the scenario, build its firmware. *)
let setup ?sp ?root (w : Workload.t) =
  match
    Spans.with_span sp Spans.Parse ~parent:(-1) ~id:(-1) ~tag:0 (fun () ->
        Workload.load ?root w)
  with
  | Error e -> Error e
  | Ok scenario -> Ok (scenario, build_firmware ?sp ~parent:(-1) scenario)

(* --- one device --------------------------------------------------- *)

(* Per-device dispatch tally, folded exactly as [Device.run] folds its
   dispatch records. *)
type tally = {
  mutable dispatches : int;
  mutable no_handler : int;
  mutable faults : int;
  mutable api_calls : int;
  dispatch : Hist.t;
  latency : Hist.t;
}

let tally () =
  {
    dispatches = 0;
    no_handler = 0;
    faults = 0;
    api_calls = 0;
    dispatch = Hist.create ();
    latency = Hist.create ();
  }

let count t (r : Kernel.dispatch_record) =
  match r.Kernel.dr_outcome with
  | Kernel.No_handler -> t.no_handler <- t.no_handler + 1
  | Kernel.Ok | Kernel.App_fault _ ->
    t.dispatches <- t.dispatches + 1;
    Hist.record t.dispatch r.Kernel.dr_cycles;
    Hist.record t.latency r.Kernel.dr_latency;
    t.api_calls <- t.api_calls + r.Kernel.dr_api_calls;
    (match r.Kernel.dr_outcome with
    | Kernel.App_fault _ -> t.faults <- t.faults + 1
    | Kernel.Ok | Kernel.No_handler -> ())

(* The span context of one device: its buffer, its [Device] span, its
   id and mode tag. *)
type ctx = { sp : Spans.t option; dev : int; id : int; tag : int }

let span c layer f = Spans.with_span c.sp layer ~parent:c.dev ~id:c.id ~tag:c.tag f

let dispatch c k =
  match c.sp with
  | None -> Kernel.dispatch_next k
  | Some b ->
    let i = Spans.open_ b Spans.Dispatch ~parent:c.dev ~id:c.id ~tag:c.tag in
    let r = Kernel.dispatch_next k in
    Spans.close b i;
    (match r with
    | Some r ->
      Spans.set_cycles b i r.Kernel.dr_cycles;
      Spans.set_aux b i
        (match r.Kernel.dr_outcome with
        | Kernel.Ok -> Spans.outcome_ok
        | Kernel.No_handler -> Spans.outcome_no_handler
        | Kernel.App_fault _ -> Spans.outcome_fault)
    | None -> ());
    r

(* [Kernel.run_for_ms], one [Kernel.dispatch_next] at a time. *)
let run_for_ms c k t ms =
  let deadline = k.Kernel.now + Event.ms_to_cycles ms in
  let rec go () =
    match Event_queue.peek k.Kernel.queue with
    | Some e when e.Event.at <= deadline -> (
      match dispatch c k with
      | Some r ->
        count t r;
        go ()
      | None -> ())
    | _ -> k.Kernel.now <- deadline
  in
  go ()

(* Copy of [Device]'s private traffic generator: inter-arrival gaps
   uniform on [1, 2*mean] ms from a stream-private rng.  Guarded by
   [check_devices] and by the aggregate equality with [Fleet.run]. *)
let post_traffic k ~napps ~duration_ms ~dseed ti (tr : Scenario.traffic) =
  let rng = Rng.create (dseed lxor ((ti + 1) * 0x9E3779B9)) in
  let mean_ms = max 1 (int_of_float (1000.0 /. tr.Scenario.tr_rate)) in
  let rec go t =
    let t = t + 1 + Rng.draw rng (2 * mean_ms) in
    if t < duration_ms then begin
      for _ = 1 to tr.Scenario.tr_burst do
        let app = Rng.draw rng napps in
        let kind, arg =
          match tr.Scenario.tr_kind with
          | Scenario.Button -> (Event.Button 1, 1)
          | Scenario.Ble -> (Event.Button 2, Rng.draw rng 256)
          | Scenario.Tick -> (Event.Tick, 0)
        in
        Kernel.post k ~delay_ms:t ~app kind ~arg
      done;
      go t
    end
  in
  go 0

let post_churn k ~napps ~duration_ms churn =
  let rec go t =
    if t < duration_ms then begin
      for a = 0 to napps - 1 do
        Kernel.post k ~delay_ms:t ~app:a Event.Init ~arg:0
      done;
      go (t + churn)
    end
  in
  go churn

(* What a device run leaves besides its [Device.result]. *)
type extra = {
  blocks : int;  (** predecoded blocks cached after the run *)
  mismatches : int;  (** button dispatches off the reference cycles *)
}

let finish c k ~index ~mode t =
  let cycles = M.cycles k.Kernel.machine in
  let os_intact = span c Spans.Os_intact (fun () -> Kernel.os_intact k) in
  let alive =
    span c Spans.Liveness (fun () -> Kernel.liveness_probe k ~app:0)
  in
  {
    Device.r_index = index;
    r_mode = mode;
    r_dispatches = t.dispatches;
    r_no_handler = t.no_handler;
    r_faults = t.faults;
    r_unrecovered = List.length (Kernel.unrecovered_faults k);
    r_api_calls = t.api_calls;
    r_cycles = cycles;
    r_dispatch = t.dispatch;
    r_latency = t.latency;
    r_os_intact = os_intact;
    r_alive = alive;
  }

(* [Device.run], call for call. *)
let fleet_device c ~fw ~scenario ~seed ~index =
  let duration_ms = scenario.Scenario.sc_duration_ms in
  let dseed = Scenario.device_seed ~seed ~index in
  let k =
    span c Spans.Create (fun () ->
        Kernel.create ~policy:Kernel.Disable
          ~scenario:scenario.Scenario.sc_sensors ~seed:dseed fw)
  in
  let napps = Array.length k.Kernel.apps in
  span c Spans.Traffic (fun () ->
      List.iteri
        (post_traffic k ~napps ~duration_ms ~dseed)
        scenario.Scenario.sc_traffic;
      Option.iter (post_churn k ~napps ~duration_ms)
        scenario.Scenario.sc_churn_ms);
  let t = tally () in
  run_for_ms c k t duration_ms;
  let blocks = Hashtbl.length k.Kernel.machine.M.blocks in
  (finish c k ~index ~mode:fw.Aft.fw_mode t, { blocks; mismatches = 0 })

(* Gateheavy: after the scenario's warm-up window, [dispatches] rounds
   of post-one / dispatch-one behind a standing backlog of [backlog]
   events, so every event waits behind a few long handlers.  Every
   [init_every]-th event is [Init], the rest button presses whose
   arguments come from the device seed (the handler ignores them);
   every button dispatch must take [ref_cycles]. *)
let gate_device c ~fw ~scenario ~seed ~index ~dispatches ~backlog ~init_every
    ~ref_cycles =
  let dseed = Scenario.device_seed ~seed ~index in
  let k =
    span c Spans.Create (fun () ->
        Kernel.create ~policy:Kernel.Disable
          ~scenario:scenario.Scenario.sc_sensors ~seed:dseed fw)
  in
  let t = tally () in
  run_for_ms c k t scenario.Scenario.sc_duration_ms;
  let rng = Rng.create dseed in
  let posted = ref 0 in
  let post () =
    incr posted;
    span c Spans.Traffic (fun () ->
        if !posted mod init_every = 0 then
          Kernel.post k ~delay_ms:0 ~app:0 Event.Init ~arg:0
        else
          Kernel.post k ~delay_ms:0 ~app:0 (Event.Button 1)
            ~arg:(Rng.draw rng 256))
  in
  for _ = 1 to backlog do
    post ()
  done;
  let mismatches = ref 0 in
  for _ = 1 to dispatches do
    post ();
    match dispatch c k with
    | Some r ->
      count t r;
      if r.Kernel.dr_kind = Event.Button 1 && r.Kernel.dr_cycles <> ref_cycles
      then incr mismatches
    | None -> incr mismatches
  done;
  let blocks = Hashtbl.length k.Kernel.machine.M.blocks in
  (finish c k ~index ~mode:fw.Aft.fw_mode t, { blocks; mismatches = !mismatches })

(* --- a whole fleet ------------------------------------------------ *)

(* One worker's accumulator under [Sched.fold_shards]. *)
type worker = {
  wsp : Spans.t option;
  wspan : int;  (** the worker's busy span, -1 untraced *)
  shard : Fleet.shard;
  mutable results : (Device.result * extra) list;
  mutable last_ns : int;  (** end of the worker's last device *)
}

type run = {
  summary : Fleet.summary;
  json : string;  (** [Fleet.summary_json] bytes *)
  results : (Device.result * extra) array;  (** by device index *)
  bufs : Spans.t list;  (** main buffer first, then one per worker *)
  wall_ns : int;  (** [Sched.fold_shards] call *)
  worker_busy_ns : int list;  (** per worker that ran a device *)
  worker_last_ns : int list;  (** when each of those finished *)
}

let aggregate_json s = Json.to_string (Fleet.summary_json s)

(* [Fleet.run] for any workload: build the firmware, run every device
   of the scenario through [Sched.fold_shards], merge the shards in
   both directions and check they agree.  [trace] records spans. *)
let run ?(trace = false) (w : Workload.t) ~scenario ~seed =
  let main = if trace then Some (Spans.create ~worker:0 ()) else None in
  let run_span =
    match main with
    | Some b -> Spans.open_ b Spans.Run ~parent:(-1) ~id:(-1) ~tag:0
    | None -> -1
  in
  let fws = build_firmware ?sp:main ~parent:run_span scenario in
  let jobs = max 1 (min w.Workload.jobs scenario.Scenario.sc_devices) in
  let next_worker = Atomic.make 1 in
  let init () =
    let wsp =
      if trace then
        Some (Spans.create ~worker:(Atomic.fetch_and_add next_worker 1) ())
      else None
    in
    let wspan =
      match wsp with
      | Some b -> Spans.open_ b Spans.Worker ~parent:(-1) ~id:(-1) ~tag:0
      | None -> -1
    in
    { wsp; wspan; shard = Fleet.shard_empty (); results = []; last_ns = 0 }
  in
  let fold (wk : worker) index =
    let fw = List.assoc (Scenario.device_mode scenario ~index) fws in
    let tag = Workload.mode_index fw.Aft.fw_mode in
    let dev =
      match wk.wsp with
      | Some b -> Spans.open_ b Spans.Device ~parent:wk.wspan ~id:index ~tag
      | None -> -1
    in
    let c = { sp = wk.wsp; dev; id = index; tag } in
    let r, extra =
      match w.Workload.runner with
      | Workload.Fleet_run -> fleet_device c ~fw ~scenario ~seed ~index
      | Workload.Gateheavy { dispatches; backlog; init_every } ->
        gate_device c ~fw ~scenario ~seed ~index ~dispatches ~backlog
          ~init_every
          ~ref_cycles:(List.assoc fw.Aft.fw_mode w.Workload.button_cycles)
    in
    span c Spans.Record (fun () -> Fleet.shard_record wk.shard r);
    wk.results <- (r, extra) :: wk.results;
    (match wk.wsp with Some b -> Spans.close b dev | None -> ());
    wk.last_ns <- Clock.now_ns ();
    wk
  in
  let t0 = Clock.now_ns () in
  let workers =
    Sched.fold_shards ~jobs ~batch:4 ~init ~fold
      (List.init scenario.Scenario.sc_devices Fun.id)
  in
  let wall_ns = Clock.now_ns () - t0 in
  (* a worker's busy span ends with its last device; one that stole
     nothing was never busy *)
  let busy = List.filter (fun (wk : worker) -> wk.results <> []) workers in
  List.iter
    (fun (wk : worker) ->
      match wk.wsp with
      | Some b ->
        b.Spans.stop.(wk.wspan) <-
          (if wk.results = [] then b.Spans.start.(wk.wspan) else wk.last_ns)
      | None -> ())
    workers;
  let merge acc wk =
    Spans.with_span main Spans.Merge ~parent:run_span ~id:(-1) ~tag:0
      (fun () -> Fleet.shard_merge acc wk.shard)
  in
  let merged = List.fold_left merge (Fleet.shard_empty ()) workers in
  let merged_rev = List.fold_left merge (Fleet.shard_empty ()) (List.rev workers) in
  if not (Fleet.shard_equal merged merged_rev) then
    failwith "shard merge is not order-independent";
  (match main with Some b -> Spans.close b run_span | None -> ());
  let modes = Fleet.shard_modes merged in
  let sum f = List.fold_left (fun a m -> a + f m) 0 modes in
  let summary =
    {
      Fleet.fs_scenario = scenario;
      fs_seed = seed;
      fs_jobs = jobs;
      fs_modes = modes;
      fs_devices = sum (fun m -> m.Fleet.ma_devices);
      fs_dispatches = sum (fun m -> m.Fleet.ma_dispatches);
      fs_oracle_failures = sum (fun m -> m.Fleet.ma_oracle_failures);
      fs_violations = Fleet.shard_violations merged;
      fs_elapsed_s = Clock.seconds_of_ns wall_ns;
    }
  in
  let results =
    List.concat_map (fun (wk : worker) -> wk.results) workers
    |> List.sort (fun (a, _) (b, _) -> compare a.Device.r_index b.Device.r_index)
    |> Array.of_list
  in
  {
    summary;
    json = aggregate_json summary;
    results;
    bufs =
      Option.to_list main @ List.filter_map (fun wk -> wk.wsp) workers;
    wall_ns;
    worker_busy_ns =
      List.filter_map
        (fun wk -> Option.map (fun b -> Spans.duration b wk.wspan) wk.wsp)
        busy;
    worker_last_ns = List.map (fun wk -> wk.last_ns) busy;
  }

(* An operation that failed: a device with an oracle violation or an
   app left disabled (fleet workloads), or a faulting dispatch
   (gateheavy). *)
let failed_ops (w : Workload.t) r =
  match w.Workload.runner with
  | Workload.Fleet_run ->
    Array.fold_left
      (fun a (d, _) ->
        if Device.violations d <> [] || d.Device.r_unrecovered > 0 then a + 1
        else a)
      0 r.results
  | Workload.Gateheavy _ ->
    Array.fold_left (fun a (d, _) -> a + d.Device.r_faults) 0 r.results

let attempted_ops (w : Workload.t) (s : Fleet.summary) =
  match w.Workload.runner with
  | Workload.Fleet_run -> s.Fleet.fs_devices
  | Workload.Gateheavy _ -> s.Fleet.fs_dispatches

let mismatches r =
  Array.fold_left (fun a (_, e) -> a + e.mismatches) 0 r.results

let result_equal (a : Device.result) (b : Device.result) =
  a.Device.r_index = b.Device.r_index
  && a.r_mode = b.r_mode
  && a.r_dispatches = b.r_dispatches
  && a.r_no_handler = b.r_no_handler
  && a.r_faults = b.r_faults
  && a.r_unrecovered = b.r_unrecovered
  && a.r_api_calls = b.r_api_calls
  && a.r_cycles = b.r_cycles
  && Hist.equal a.r_dispatch b.r_dispatch
  && Hist.equal a.r_latency b.r_latency
  && a.r_os_intact = b.r_os_intact
  && a.r_alive = b.r_alive

(* The replay's per-device results against [Device.run] on the same
   seed (fleet workloads; the gateheavy device loop has no library twin).
   Returns the number of devices that differ. *)
let check_devices (w : Workload.t) ~scenario ~seed r =
  match w.Workload.runner with
  | Workload.Gateheavy _ -> 0
  | Workload.Fleet_run ->
    let fws = build_firmware ~parent:(-1) scenario in
    Sched.map ~jobs:w.Workload.jobs ~batch:4
      (fun (replayed, _) ->
        let index = replayed.Device.r_index in
        let fw = List.assoc (Scenario.device_mode scenario ~index) fws in
        result_equal replayed (Device.run ~fw ~scenario ~seed ~index))
      (Array.to_list r.results)
    |> List.filter not |> List.length

(* The untraced trial: [Fleet.run] itself for fleet workloads. *)
let untraced (w : Workload.t) ~scenario ~seed =
  match w.Workload.runner with
  | Workload.Fleet_run ->
    let s = Fleet.run ~jobs:w.Workload.jobs ~seed scenario in
    (s, aggregate_json s, 0)
  | Workload.Gateheavy _ ->
    let r = run w ~scenario ~seed in
    (r.summary, r.json, mismatches r)
