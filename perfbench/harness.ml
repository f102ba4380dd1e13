(* One benchmark run: the untraced run measures the end-to-end metrics,
   the traced run the per-layer ledger.  Both check the simulated
   outputs against the references and count failed operations. *)

module Json = Amulet_obs.Json
module Stats = Amulet_bench_core.Stats
module Fleet = Amulet_fleet_core.Fleet
module Scenario = Amulet_fleet_core.Scenario

type metric = Ledger.metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : Json.t;  (** host facts, raw trials, checks, ledger table *)
}

let e2e_names =
  [
    ("setup_s", "s");
    ("devices_per_s", "1/s");
    ("dispatches_per_s", "1/s");
    ("sim_mcycles_per_s", "Mcycles/s");
    ("peak_rss_mb", "MB");
    ("ok_share", "share");
    ("trace_overhead_pct", "pct");
  ]

(* Set-up repetitions of the traced run. *)
let setup_reps = 9

(* Quartiles as the medians of the lower and upper halves (Tukey's
   hinges), so every statistic comes from [Stats]. *)
let quartiles xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  let h = n / 2 in
  if n < 2 then (Stats.median s, Stats.median s)
  else (Stats.median (Array.sub s 0 h), Stats.median (Array.sub s (n - h) h))

let trials_json xs =
  let st = Stats.summarize xs in
  let q1, q3 = quartiles xs in
  Json.Obj
    [
      ("raw", Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) xs)));
      ("n", Json.Int st.Stats.n);
      ("median", Json.Float st.Stats.median);
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("mad", Json.Float st.Stats.mad);
    ]

(* Host-memory high-water mark of this process, in MB. *)
let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
            else go ()
        in
        go ())
  in
  match (try from_status () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let host_json (w : Workload.t) ~seed ~trace =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Str v)) (Amulet_bench_core.Runner.host_meta ())
    @ [
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("jobs", Json.Int w.Workload.jobs);
        ("workload", Json.Str w.Workload.name);
        ("seed", Json.Int seed);
        ("trace", Json.Bool trace);
      ])

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.seconds_of_ns (Clock.now_ns () - t0))

let read_reference ?root (w : Workload.t) =
  let file = Workload.path ?root w.Workload.reference in
  try Some (String.trim (In_channel.with_open_text file In_channel.input_all))
  with Sys_error _ -> None

(* Simulated-output checks shared by both runs.  [jsons] are the
   aggregates of every trial, traced or not, of one seed. *)
let check ?root ?(extra = []) (w : Workload.t) ~scenario ~seed ~jsons
    ~mismatches =
  let first = List.hd jsons in
  let agree = List.for_all (String.equal first) jsons in
  let at_reference_seed = seed = scenario.Scenario.sc_seed in
  let reference_ok =
    (not at_reference_seed) || read_reference ?root w = Some first
  in
  let checks =
    [
      ("trials_and_replay_agree", agree);
      ("reference_aggregate", reference_ok);
      ("reference_button_cycles", mismatches = 0);
    ]
    @ extra
  in
  (List.for_all snd checks, Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) checks))

let finish ~ok ~attempted ~failed_each ~runs =
  let failed = if ok then failed_each * runs else attempted in
  (ok && failed = 0, failed)

let setup_or_fail ?sp ?root w =
  match Drive.setup ?sp ?root w with
  | Ok s -> s
  | Error e -> failwith e

(* --- untraced run: end-to-end metrics ---------------------------- *)

let run_e2e ?root (w : Workload.t) ~seed ~seconds =
  let budget_ns = int_of_float (seconds *. 1e9) in
  (* per trial, by metric name: raw host times and the same scaled to
     the probe's reference host speed; metrics report the scaled ones *)
  let raw = Hashtbl.create 8 and cal = Hashtbl.create 8 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let jsons = ref [] and mismatches = ref 0 in
  let untraced_runs = ref 0 and attempted = ref 0 in
  (* the probe runs right before and right after every untraced trial
     (the probe after one trial serves the next when nothing ran in
     between); a set-up precedes every trial, so the probe and
     [setup_s] sample the same stretch of host time as the rates *)
  let last_probe = ref None in
  let trial ~timed =
    let p0 =
      match !last_probe with Some p -> p | None -> Probe.calibration ()
    in
    let (scenario, _), setup_dt = time (fun () -> setup_or_fail ?root w) in
    let (s, json, mism), dt =
      time (fun () -> Drive.untraced w ~scenario ~seed)
    in
    let p1 = Probe.calibration () in
    last_probe := Some p1;
    jsons := json :: !jsons;
    mismatches := !mismatches + mism;
    incr untraced_runs;
    attempted := !attempted + Drive.attempted_ops w s;
    if timed then begin
      let k = Probe.reference_s /. ((p0 +. p1) /. 2.) in
      let cycles =
        List.fold_left (fun a m -> a + m.Fleet.ma_cycles) 0 s.Fleet.fs_modes
      in
      List.iter
        (fun (name, per_s) ->
          push raw name per_s;
          push cal name (per_s /. k))
        [
          ("devices_per_s", float_of_int s.Fleet.fs_devices /. dt);
          ("dispatches_per_s", float_of_int s.Fleet.fs_dispatches /. dt);
          ("sim_mcycles_per_s", float_of_int cycles /. 1e6 /. dt);
        ];
      push raw "setup_s" setup_dt;
      push cal "setup_s" (setup_dt *. k);
      push raw "probe_s" p0;
      push cal "host_speed_factor" k
    end;
    (scenario, dt)
  in
  (* a warm-up trial, checked but not timed *)
  let scenario, _ = trial ~timed:false in
  let start = Clock.now_ns () in
  let elapsed () = Clock.now_ns () - start in
  let untraced () = snd (trial ~timed:true) in
  (* phase 1: untraced trials only, then the memory high-water mark *)
  while elapsed () < budget_ns / 2 || !untraced_runs < 4 do
    ignore (untraced ())
  done;
  let rss = peak_rss_mb () in
  (* phase 2: untraced/traced pairs, alternating which runs first *)
  let ratios = ref [] and failed_each = ref 0 and traced_runs = ref 0 in
  let traced () =
    last_probe := None;
    let r, dt = time (fun () -> Drive.run ~trace:true w ~scenario ~seed) in
    jsons := r.Drive.json :: !jsons;
    mismatches := !mismatches + Drive.mismatches r;
    failed_each := Drive.failed_ops w r;
    incr traced_runs;
    attempted := !attempted + Drive.attempted_ops w r.Drive.summary;
    dt
  in
  while elapsed () < budget_ns || !traced_runs < 3 do
    let u, t =
      if !traced_runs mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    ratios := (t /. u) :: !ratios
  done;
  let ok, checks =
    check ?root w ~scenario ~seed ~jsons:!jsons ~mismatches:!mismatches
  in
  let runs = !untraced_runs + !traced_runs in
  let correct, failed =
    finish ~ok ~attempted:!attempted ~failed_each:!failed_each ~runs
  in
  let arr tbl k = Array.of_list (List.rev (Hashtbl.find tbl k)) in
  let ratios = Array.map (fun r -> 100. *. r) (Array.of_list (List.rev !ratios)) in
  let value = function
    | "peak_rss_mb" -> rss
    | "ok_share" -> 1. -. (float_of_int failed /. float_of_int (max 1 !attempted))
    | "trace_overhead_pct" -> Stats.median ratios
    | name -> Stats.median (arr cal name)
  in
  let trials tbl names =
    Json.Obj (List.map (fun n -> (n, trials_json (arr tbl n))) names)
  in
  let timed = [ "setup_s"; "devices_per_s"; "dispatches_per_s"; "sim_mcycles_per_s" ] in
  {
    correct;
    attempted = !attempted;
    failed;
    metrics =
      List.map (fun (name, unit_) -> { name; unit_; value = value name }) e2e_names;
    detail =
      Json.Obj
        [
          ("host", host_json w ~seed ~trace:false);
          ("checks", checks);
          ("aggregate", Json.parse (List.hd !jsons));
          ("untraced_trials", Json.Int !untraced_runs);
          ("traced_trials", Json.Int !traced_runs);
          ( "trials",
            trials cal (timed @ [ "host_speed_factor" ]) );
          ("trace_overhead_pct", trials_json ratios);
          ("raw_trials", trials raw (timed @ [ "probe_s" ]));
        ];
  }

(* --- traced run: per-layer ledger -------------------------------- *)

(* The Table 1 line: the simulator against the paper's own reference
   measurements.  The fleet and gateheavy figures have no hardware
   reference, so no error is claimed for them. *)
let model_accuracy_json (ms : metric list) =
  Json.Obj
    [
      ( "table1",
        Json.Obj
          (List.filter_map
             (fun m ->
               if String.length m.name > 10 && String.sub m.name 0 10 = "sim.table1"
               then Some (m.name, Json.Float m.value)
               else None)
             ms) );
      ( "note",
        Json.Str
          "sim.table1.* is Experiments.table1 beside Paper.table1 (the \
           MSP430FR5969 measurements); the fleet and gateheavy figures have no \
           hardware reference" );
    ]

(* Where the traced run writes its spans, relative to the root. *)
let spans_file (w : Workload.t) ~seed =
  Printf.sprintf "perfbench/traces/%s.seed%d.trace.json" w.Workload.name seed

let run_traced ?root (w : Workload.t) ~seed ~seconds =
  let setup_sp = Spans.create ~worker:0 () in
  let setup () = fst (setup_or_fail ~sp:setup_sp ?root w) in
  let scenario = setup () in
  for _ = 2 to setup_reps do
    ignore (setup ())
  done;
  let budget_ns = int_of_float (seconds *. 1e9) in
  let start = Clock.now_ns () in
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let m0 = majors () in
  let baseline, base_json, base_mism = Drive.untraced w ~scenario ~seed in
  let major_collections = majors () - m0 in
  let ledger = Ledger.create () in
  Ledger.add_setup ledger setup_sp;
  (* replays until the budget is spent; spans are folded into the
     ledger and dropped, except the first replay's, which are written
     out at the end *)
  let first = Drive.run ~trace:true w ~scenario ~seed in
  let jsons = ref [ first.Drive.json; base_json ] in
  let mismatches = ref (base_mism + Drive.mismatches first) in
  let attempted =
    ref (Drive.attempted_ops w baseline + Drive.attempted_ops w first.Drive.summary)
  in
  let replays = ref 1 and walls = ref [] in
  let fold (r : Drive.run) =
    Ledger.add_run ledger r;
    walls := Clock.seconds_of_ns r.Drive.wall_ns :: !walls;
    if r != first then begin
      jsons := r.Drive.json :: !jsons;
      mismatches := !mismatches + Drive.mismatches r;
      attempted := !attempted + Drive.attempted_ops w r.Drive.summary;
      incr replays
    end
  in
  fold first;
  while Clock.now_ns () - start < budget_ns do
    fold (Drive.run ~trace:true w ~scenario ~seed)
  done;
  let device_diffs = Drive.check_devices w ~scenario ~seed first in
  let table1 = Amulet_iso.Experiments.table1 () in
  let ok, checks =
    check ?root w ~scenario ~seed ~jsons:!jsons ~mismatches:!mismatches
      ~extra:[ ("replay_matches_device_run", device_diffs = 0) ]
  in
  let correct, failed =
    finish ~ok ~attempted:!attempted ~failed_each:(Drive.failed_ops w first)
      ~runs:(1 + !replays)
  in
  let metrics, missing =
    Ledger.finish ledger { Ledger.baseline; major_collections; table1 }
  in
  let spans_path = Workload.path ?root (spans_file w ~seed) in
  (let dir = Filename.dirname spans_path in
   if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  Out_channel.with_open_text spans_path
    (Spans.to_chrome ~t0:start (setup_sp :: first.Drive.bufs));
  {
    correct;
    attempted = !attempted;
    failed;
    metrics;
    detail =
      Json.Obj
        [
          ("host", host_json w ~seed ~trace:true);
          ("checks", checks);
          ("aggregate", Json.parse base_json);
          ("traced_replays", Json.Int !replays);
          ("spans", Json.Str spans_path);
          ("trials", Json.Obj [ ("replay_wall_s", trials_json (Array.of_list (List.rev !walls))) ]);
          ("not_exercised", Json.Arr (List.map (fun n -> Json.Str n) missing));
          ( "self_ms",
            Json.Obj
              (List.map
                 (fun (name, n, t) ->
                   (name, Json.Obj [ ("spans", Json.Int n); ("self_ms", Json.Float (float_of_int t /. 1e6)) ]))
                 (Ledger.self_times ledger)) );
          ("model_accuracy", model_accuracy_json metrics);
        ];
  }

(* The result line: exactly the four keys, numbers with all digits. *)
let result_line r =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v
  in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)
