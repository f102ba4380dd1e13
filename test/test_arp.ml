(* Profiler, energy-model and experiment-shape tests.  These assert
   the *qualitative* results of the paper (orderings, bounds), which
   must hold however the absolute cycle counts drift. *)

module Arp = Amulet_arp.Arp
module Energy = Amulet_arp.Energy
module Apps = Amulet_apps.Suite
module Iso = Amulet_cc.Isolation
module Ex = Amulet_iso.Experiments
module Paper = Amulet_iso.Paper

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Energy model *)

let test_energy_model () =
  (* an overhead of one billion cycles/week is well under 0.5 % *)
  let pct = Energy.battery_impact_percent ~overhead_cycles_per_week:1e9 in
  check_bool "1 Gcycle impact small" true (pct > 0.0 && pct < 0.5);
  (* zero overhead, zero impact *)
  Alcotest.(check (float 1e-9))
    "zero" 0.0
    (Energy.battery_impact_percent ~overhead_cycles_per_week:0.0);
  (* monotone *)
  check_bool "monotone" true
    (Energy.battery_impact_percent ~overhead_cycles_per_week:2e9 > pct);
  (* sanity of constants: ~0.3 nJ/cycle, ~1.2 kJ battery *)
  check_bool "joules/cycle" true
    (Energy.joules_per_cycle > 1e-10 && Energy.joules_per_cycle < 1e-9);
  check_bool "battery" true
    (Energy.battery_joules > 500.0 && Energy.battery_joules < 5000.0)

(* ------------------------------------------------------------------ *)
(* ARP profiles *)

let test_profile_pedometer () =
  let p =
    Arp.profile_app ~warmup_ms:10_000 ~mode:Iso.No_isolation
      (Apps.find "pedometer")
  in
  let accel =
    List.find (fun h -> h.Arp.hp_handler = "handle_accel") p.Arp.ap_handlers
  in
  (* 25 Hz subscription: 15.12 M events/week *)
  Alcotest.(check (float 1.0))
    "events/week" (25.0 *. 604800.0) accel.Arp.hp_events_per_week;
  check_bool "cycles per event sane" true
    (accel.Arp.hp_cycles_per_event > 50.0
    && accel.Arp.hp_cycles_per_event < 5000.0);
  check_bool "one API call per event" true
    (accel.Arp.hp_api_calls_per_event >= 1.0)

let test_overhead_ordering () =
  (* fall_detection: per-event cost must rise with check strength:
     NoIso <= each isolating mode *)
  let app = Apps.find "fall_detection" in
  let cycles mode =
    (Arp.profile_app ~warmup_ms:5_000 ~mode app).Arp.ap_cycles_per_week
  in
  let base = cycles Iso.No_isolation in
  List.iter
    (fun mode ->
      check_bool (Iso.name mode ^ " >= baseline") true (cycles mode >= base))
    [ Iso.Feature_limited; Iso.Software_only; Iso.Mpu_assisted ]

let test_static_view () =
  (* quicksort under software-only: the partition loops dereference
     dynamically-indexed arrays, so checked sites must appear *)
  let sites_of mode =
    (Arp.profile_app ~warmup_ms:1_000 ~mode (Apps.find "quicksort")).Arp.ap_sites
  in
  let sites = sites_of Iso.Software_only in
  let total_checked =
    List.fold_left (fun a s -> a + s.Arp.ss_checked) 0 sites
  in
  check_bool "has checked sites" true (total_checked > 0);
  (* no-isolation: zero checked sites everywhere *)
  let sites0 = sites_of Iso.No_isolation in
  Alcotest.(check int)
    "no checks in baseline" 0
    (List.fold_left (fun a s -> a + s.Arp.ss_checked) 0 sites0)

(* ARP-view: a two-state app whose timer handler does markedly more
   work in state 1.  No suite app declares [state], so this is the
   only run of the per-state rows [amulet arp] prints. *)
let twostate =
  {
    Apps.name = "twostate";
    display_name = "TwoState";
    source =
      "int state = 0;\n\
       int sink[16];\n\
       void handle_init(int arg) { api_set_timer(100); }\n\
       void handle_timer(int arg) {\n\
      \  if (state == 0) { state = 1; }\n\
      \  else {\n\
      \    int i; for (i = 0; i < 16; i++) sink[i] = i;\n\
      \    state = 0;\n\
      \  }\n\
       }\n";
    source_feature_limited = None;
  }

let test_state_view () =
  let p = Arp.profile_app ~warmup_ms:2_000 ~mode:Iso.Mpu_assisted twostate in
  let timer st =
    match List.assoc_opt (st, "handle_timer") p.Arp.ap_states with
    | Some s -> s
    | None -> Alcotest.failf "no ARP-view row for state %d" st
  in
  let avg (s : Amulet_os.Kernel.handler_stats) = s.hs_cycles / s.hs_count in
  let s0 = timer 0 and s1 = timer 1 in
  check_bool "both states dispatched" true (s0.hs_count >= 5 && s1.hs_count >= 5);
  check_bool "state-1 timer costlier" true (avg s1 > avg s0);
  Alcotest.(check (list (pair int string)))
    "one row per (state, handler)"
    [ (0, "handle_init"); (0, "handle_timer"); (1, "handle_timer") ]
    (List.map fst p.Arp.ap_states)

(* ------------------------------------------------------------------ *)
(* Experiment shapes (small iteration counts to stay fast) *)

let table1_rows = lazy (Ex.table1 ~runs:30 ())

let test_table1_memory_order () =
  let rows = Lazy.force table1_rows in
  let v mode = (List.find (fun r -> r.Ex.t1_mode = mode) rows).Ex.t1_mem_access in
  (* paper's ordering: NoIso < MPU < SW < FL *)
  check_bool "noiso < mpu" true (v Iso.No_isolation < v Iso.Mpu_assisted);
  check_bool "mpu < sw" true (v Iso.Mpu_assisted < v Iso.Software_only);
  check_bool "sw < fl" true (v Iso.Software_only < v Iso.Feature_limited)

let test_table1_ctx_order () =
  let rows = Lazy.force table1_rows in
  let v mode = (List.find (fun r -> r.Ex.t1_mode = mode) rows).Ex.t1_ctx_switch in
  (* paper's ordering: NoIso = FL < SW < MPU *)
  Alcotest.(check (float 0.5))
    "noiso = fl"
    (v Iso.No_isolation)
    (v Iso.Feature_limited);
  check_bool "fl < sw" true (v Iso.Feature_limited < v Iso.Software_only);
  check_bool "sw < mpu" true (v Iso.Software_only < v Iso.Mpu_assisted)

let test_table1_magnitudes () =
  (* within a factor ~3 of the paper's absolute numbers *)
  let rows = Lazy.force table1_rows in
  List.iter
    (fun r ->
      let paper_mem = float_of_int (Paper.table1 r.Ex.t1_mode Paper.Memory_access) in
      check_bool
        (Iso.name r.Ex.t1_mode ^ " memory magnitude")
        true
        (r.Ex.t1_mem_access > paper_mem /. 3.0
        && r.Ex.t1_mem_access < paper_mem *. 3.0))
    rows

let test_figure3_shape () =
  let rows = Ex.figure3 ~runs:10 () in
  List.iter
    (fun case ->
      let v mode =
        (List.find (fun r -> r.Ex.f3_case = case && r.Ex.f3_mode = mode) rows)
          .Ex.f3_slowdown_percent
      in
      (* MPU beats software-only on compute-heavy benchmarks; both are
         slowdowns (non-negative) *)
      check_bool (case ^ ": mpu < sw") true
        (v Iso.Mpu_assisted < v Iso.Software_only);
      check_bool (case ^ ": sw < fl") true
        (v Iso.Software_only < v Iso.Feature_limited);
      check_bool (case ^ ": all positive") true (v Iso.Mpu_assisted > 0.0))
    [ "Activity Case 1"; "Activity Case 2"; "Quicksort" ]

let test_figure2_battery_bound () =
  (* the paper's headline claim on a subset of apps to keep it fast *)
  List.iter
    (fun name ->
      let app = Apps.find name in
      let baseline =
        Arp.profile_app ~warmup_ms:15_000 ~mode:Iso.No_isolation app
      in
      List.iter
        (fun mode ->
          let p = Arp.profile_app ~warmup_ms:15_000 ~mode app in
          let overhead = Arp.overhead_cycles_per_week ~baseline p in
          let pct =
            Energy.battery_impact_percent ~overhead_cycles_per_week:overhead
          in
          check_bool
            (Printf.sprintf "%s/%s %.4f%% < 0.5%%" name (Iso.name mode) pct)
            true
            (pct < Paper.figure2_battery_bound_percent))
        [ Iso.Feature_limited; Iso.Software_only; Iso.Mpu_assisted ])
    [ "pedometer"; "fall_detection"; "heart_rate" ]

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "arp"
    [
      ("energy", [ quick "model" test_energy_model ]);
      ( "profiles",
        [
          quick "pedometer" test_profile_pedometer;
          quick "overhead ordering" test_overhead_ordering;
          quick "static view" test_static_view;
          quick "per-state view" test_state_view;
        ] );
      ( "experiments",
        [
          quick "table1 memory order" test_table1_memory_order;
          quick "table1 ctx order" test_table1_ctx_order;
          quick "table1 magnitudes" test_table1_magnitudes;
          quick "figure3 shape" test_figure3_shape;
          quick "figure2 battery bound" test_figure2_battery_bound;
        ] );
    ]
