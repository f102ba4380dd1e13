(* Behaviour of the extension applications (StressAware,
   ActivityAware, MedReminder) across scenarios and isolation modes. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Apps = Amulet_apps.Suite
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module W = Amulet_mcu.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot ?(mode = Iso.Mpu_assisted) ~scenario name =
  let app = Apps.find name in
  let fw = Aft.build ~mode [ Apps.spec_for mode app ] in
  Os.Kernel.create ~scenario fw

let global k app sym =
  W.to_signed W.W16
    (M.mem_checked_read k.Os.Kernel.machine W.W16
       (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image (app ^ "$" ^ sym)))

let assert_alive k name =
  let st = Os.Kernel.app_by_name k name in
  match st.Os.Kernel.last_fault with
  | Some f -> Alcotest.failf "%s faulted: %a" name Os.Kernel.pp_fault f
  | None -> check_bool "enabled" true st.Os.Kernel.enabled

let test_all_modes () =
  List.iter
    (fun (app : Apps.app) ->
      List.iter
        (fun mode ->
          let k = boot ~mode ~scenario:Os.Sensors.Walking app.Apps.name in
          let _ = Os.Kernel.run_for_ms k 40_000 in
          assert_alive k app.Apps.name)
        Iso.all)
    Apps.extension_apps

let stress_level scenario =
  let k = boot ~scenario "stress_aware" in
  let _ = Os.Kernel.run_for_ms k 40_000 in
  assert_alive k "stress_aware";
  global k "stress_aware" "stress"

let test_stress_tracks_exertion () =
  let resting = stress_level Os.Sensors.Resting in
  let running = stress_level Os.Sensors.Running in
  check_bool
    (Printf.sprintf "running stress (%d) > resting (%d)" running resting)
    true
    (running > resting);
  check_bool "levels in range" true
    (resting >= 0 && resting <= 100 && running >= 0 && running <= 100)

let classify scenario =
  let k = boot ~scenario "activity_aware" in
  let _ = Os.Kernel.run_for_ms k 30_000 in
  assert_alive k "activity_aware";
  (global k "activity_aware" "cls", Os.Kernel.display_line k 3)

let test_activity_classifier () =
  let rest_cls, rest_lbl = classify Os.Sensors.Resting in
  check_int "rest class" 0 rest_cls;
  Alcotest.(check string) "rest label" "rest" rest_lbl;
  let walk_cls, walk_lbl = classify Os.Sensors.Walking in
  check_int "walk class" 1 walk_cls;
  Alcotest.(check string) "walk label" "walk" walk_lbl;
  let run_cls, run_lbl = classify Os.Sensors.Running in
  check_int "run class" 2 run_cls;
  Alcotest.(check string) "run label" "run" run_lbl

let test_med_reminder_acknowledged () =
  let k = boot ~scenario:Os.Sensors.Resting "med_reminder" in
  (* first reminder fires at 30 s; acknowledge right after *)
  let _ = Os.Kernel.run_for_ms k 31_000 in
  Os.Kernel.post k ~delay_ms:1 ~app:0 (Os.Event.Button 1) ~arg:1;
  let _ = Os.Kernel.run_for_ms k 5_000 in
  check_int "taken" 1 (global k "med_reminder" "taken");
  check_int "no misses yet" 0 (global k "med_reminder" "missed");
  Alcotest.(check string) "thanked" "thanks" (Os.Kernel.display_line k 0)

let test_med_reminder_missed () =
  let k = boot ~scenario:Os.Sensors.Resting "med_reminder" in
  (* never acknowledge: reminder at 30 s, missed after 2 more periods *)
  let _ = Os.Kernel.run_for_ms k 125_000 in
  check_int "nothing taken" 0 (global k "med_reminder" "taken");
  check_bool "missed doses logged" true
    (global k "med_reminder" "missed" >= 1);
  check_bool "log has M records" true
    (String.length (Os.Kernel.log_contents k) >= 1)

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "extra-apps"
    [
      ( "extensions",
        [
          quick "all apps x all modes" test_all_modes;
          quick "stress tracks exertion" test_stress_tracks_exertion;
          quick "activity classifier" test_activity_classifier;
          quick "med reminder ack" test_med_reminder_acknowledged;
          quick "med reminder missed" test_med_reminder_missed;
        ] );
    ]
