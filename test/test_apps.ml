(* Application-suite tests: every app builds under every applicable
   isolation mode, runs without faulting under the kernel, and
   actually does its job on the synthetic sensor traces. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Apps = Amulet_apps.Suite
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module W = Amulet_mcu.Word

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build_app ?(mode = Iso.Mpu_assisted) app =
  Aft.build ~mode [ Apps.spec_for mode app ]

let kernel ?(scenario = Os.Sensors.Walking) ?seed fw =
  Os.Kernel.create ~scenario ?seed fw

let global k app sym =
  let addr =
    Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image (app ^ "$" ^ sym)
  in
  W.to_signed W.W16 (M.mem_checked_read k.Os.Kernel.machine W.W16 addr)

let assert_no_faults k name =
  let app = Os.Kernel.app_by_name k name in
  (match app.Os.Kernel.last_fault with
  | Some f -> Alcotest.failf "%s faulted: %a" name Os.Kernel.pp_fault f
  | None -> ());
  check_bool (name ^ " enabled") true app.Os.Kernel.enabled

(* Every app compiles and survives a minute of its workload in every
   isolation mode. *)
let test_matrix () =
  List.iter
    (fun (app : Apps.app) ->
      List.iter
        (fun mode ->
          let fw = build_app ~mode app in
          let k = kernel fw in
          let _ = Os.Kernel.run_for_ms k 15_000 in
          assert_no_faults k app.Apps.name)
        Iso.all)
    Apps.platform_apps

let test_clock_counts_seconds () =
  let fw = build_app (Apps.find "clock") in
  let k = kernel fw in
  let _ = Os.Kernel.run_for_ms k 61_500 in
  check_int "minute rolled over" 1 (global k "clock" "minutes");
  Alcotest.(check string) "display face" "00:01" (Os.Kernel.display_line k 0)

let test_pedometer_counts_steps () =
  let fw = build_app (Apps.find "pedometer") in
  let k = kernel ~scenario:Os.Sensors.Walking fw in
  let _ = Os.Kernel.run_for_ms k 30_000 in
  let steps = global k "pedometer" "steps" in
  (* ~1.9 Hz step frequency for 30 s: expect roughly 30-60 detections *)
  check_bool
    (Printf.sprintf "step count plausible (%d)" steps)
    true
    (steps > 15 && steps < 80)

let test_pedometer_idle_when_resting () =
  let fw = build_app (Apps.find "pedometer") in
  let k = kernel ~scenario:Os.Sensors.Resting fw in
  let _ = Os.Kernel.run_for_ms k 30_000 in
  let steps = global k "pedometer" "steps" in
  check_bool (Printf.sprintf "few rest steps (%d)" steps) true (steps < 5)

let test_fall_detection_fires () =
  let fw = build_app (Apps.find "fall_detection") in
  let k = kernel ~scenario:(Os.Sensors.Fall_at 5_000) fw in
  let _ = Os.Kernel.run_for_ms k 10_000 in
  check_bool "fall detected" true (global k "fall_detection" "falls" >= 1);
  Alcotest.(check string) "alert shown" "FALL" (Os.Kernel.display_line k 0)

let test_fall_detection_quiet_on_walk () =
  let fw = build_app (Apps.find "fall_detection") in
  let k = kernel ~scenario:Os.Sensors.Walking fw in
  let _ = Os.Kernel.run_for_ms k 20_000 in
  check_int "no false alarm" 0 (global k "fall_detection" "falls")

let test_heart_rate_reports () =
  let fw = build_app (Apps.find "heart_rate") in
  let k = kernel ~scenario:Os.Sensors.Resting fw in
  let _ = Os.Kernel.run_for_ms k 11_000 in
  let bpm = global k "heart_rate" "bpm" in
  check_bool (Printf.sprintf "bpm plausible (%d)" bpm) true
    (bpm > 30 && bpm < 220)

let test_hr_log_appends () =
  let fw = build_app (Apps.find "hr_log") in
  let k = kernel fw in
  let _ = Os.Kernel.run_for_ms k 35_000 in
  check_int "three records" 3 (global k "hr_log" "logged");
  check_int "4 bytes each" 12 (String.length (Os.Kernel.log_contents k))

let test_rest_classifier () =
  let fw = build_app (Apps.find "rest") in
  let k = kernel ~scenario:Os.Sensors.Resting fw in
  let _ = Os.Kernel.run_for_ms k 185_000 in
  let minutes = global k "rest" "rest_minutes" in
  check_bool
    (Printf.sprintf "rest minutes counted (%d)" minutes)
    true (minutes >= 2)

let test_temperature_average () =
  let fw = build_app (Apps.find "temperature") in
  let k = kernel fw in
  let _ = Os.Kernel.run_for_ms k 40_000 in
  let tmax = global k "temperature" "tmax" in
  let tmin = global k "temperature" "tmin" in
  check_bool "sane skin temperature range" true
    (tmin > 250 && tmax < 420 && tmin <= tmax)

let test_battery_meter_display () =
  let fw = build_app (Apps.find "battery_meter") in
  let k = kernel fw in
  let _ = Os.Kernel.run_for_ms k 61_000 in
  let line = Os.Kernel.display_line k 1 in
  check_bool
    (Printf.sprintf "battery line %S" line)
    true
    (String.length line = 7 && String.sub line 0 4 = "Bat ")

(* Benchmark apps: a button event triggers a measured run. *)
let post_button k ~app ~arg =
  Os.Kernel.post k ~delay_ms:1 ~app Os.Event.(Button arg) ~arg;
  let _ = Os.Kernel.run_for_ms k 10 in
  ()

let test_quicksort_sorts_all_modes () =
  List.iter
    (fun mode ->
      let app = Apps.find "quicksort" in
      let fw = build_app ~mode app in
      let k = kernel fw in
      let _ = Os.Kernel.run_for_ms k 5 in
      post_button k ~app:0 ~arg:1;
      assert_no_faults k "quicksort";
      check_int (Iso.name mode ^ " sorted") 1 (global k "quicksort" "sorted_ok"))
    Iso.all

let test_quicksort_deterministic_across_modes () =
  (* the sorted array must be identical across modes (same PRNG) *)
  let snapshot mode =
    let app = Apps.find "quicksort" in
    let fw = build_app ~mode app in
    let k = kernel fw in
    let _ = Os.Kernel.run_for_ms k 5 in
    post_button k ~app:0 ~arg:1;
    let base =
      Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "quicksort$data"
    in
    List.init Amulet_apps.Bench_sources.quicksort_elems (fun i ->
        M.mem_checked_read k.Os.Kernel.machine W.W16 (base + (2 * i)))
  in
  let reference = snapshot Iso.No_isolation in
  List.iter
    (fun mode ->
      Alcotest.(check (list int))
        (Iso.name mode ^ " same result")
        reference (snapshot mode))
    [ Iso.Feature_limited; Iso.Software_only; Iso.Mpu_assisted ]

let test_activity_cases_run () =
  List.iter
    (fun mode ->
      let app = Apps.find "activity" in
      let fw = build_app ~mode app in
      let k = kernel ~scenario:Os.Sensors.Walking fw in
      let _ = Os.Kernel.run_for_ms k 5 in
      post_button k ~app:0 ~arg:1;
      post_button k ~app:0 ~arg:2;
      assert_no_faults k "activity")
    Iso.all

let test_synthetic_runs () =
  List.iter
    (fun mode ->
      let app = Apps.find "synthetic" in
      let fw = build_app ~mode app in
      let k = kernel fw in
      let _ = Os.Kernel.run_for_ms k 5 in
      post_button k ~app:0 ~arg:1;
      post_button k ~app:0 ~arg:2;
      assert_no_faults k "synthetic")
    Iso.all

(* The whole nine-app suite coexists in one firmware image. *)
let test_full_suite_one_image () =
  List.iter
    (fun mode ->
      let specs = List.map (Apps.spec_for mode) Apps.platform_apps in
      let fw = Aft.build ~mode specs in
      let k = kernel ~scenario:Os.Sensors.Daily_mix fw in
      let _ = Os.Kernel.run_for_ms k 10_000 in
      List.iter
        (fun (a : Apps.app) -> assert_no_faults k a.Apps.name)
        Apps.platform_apps)
    [ Iso.Feature_limited; Iso.Software_only; Iso.Mpu_assisted ]

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "apps"
    [
      ( "matrix",
        [
          quick "all apps x all modes" test_matrix;
          quick "nine apps, one image" test_full_suite_one_image;
        ] );
      ( "behaviour",
        [
          quick "clock" test_clock_counts_seconds;
          quick "pedometer walking" test_pedometer_counts_steps;
          quick "pedometer resting" test_pedometer_idle_when_resting;
          quick "fall detection fires" test_fall_detection_fires;
          quick "fall detection quiet" test_fall_detection_quiet_on_walk;
          quick "heart rate" test_heart_rate_reports;
          quick "hr log" test_hr_log_appends;
          quick "rest classifier" test_rest_classifier;
          quick "temperature" test_temperature_average;
          quick "battery meter" test_battery_meter_display;
        ] );
      ( "benchmarks",
        [
          quick "quicksort all modes" test_quicksort_sorts_all_modes;
          quick "quicksort deterministic" test_quicksort_deterministic_across_modes;
          quick "activity cases" test_activity_cases_run;
          quick "synthetic" test_synthetic_runs;
        ] );
    ]
