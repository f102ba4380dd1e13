(* Security subsystem tests: MPU granularity slack, oracle behaviour,
   injector determinism, and the kernel integrity probes the campaign
   relies on. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Layout = Amulet_aft.Layout
module Kernel = Amulet_os.Kernel
module Attacks = Amulet_sec.Attacks
module Campaign = Amulet_sec.Campaign
module Inject = Amulet_sec.Inject
module Proofcheck = Amulet_sec.Proofcheck

let seed = 1234

let build_exn ~attack ~mode =
  match Attacks.build_cell ~attack ~mode with
  | Attacks.Built { fw; attacker; targets; _ } -> (fw, attacker, targets)
  | Attacks.Rejected msg ->
    Alcotest.failf "%s rejected under %s: %s" attack.Attacks.atk_name
      (Iso.name mode) msg

(* ------------------------------------------------------------------ *)
(* MPU 1 KiB granularity: the slack bytes of a granule-rounded data
   segment are writable even though the app never declared them. *)

let test_slack_geometry () =
  let attack = Attacks.find "src_probe_slack" in
  let fw, attacker, targets = build_exn ~attack ~mode:Iso.Mpu_assisted in
  let lay = (Aft.find_app fw attacker).Aft.ab_layout in
  let tgt = targets.Attacks.t_self_slack in
  Alcotest.(check bool) "data region is granule-rounded" true
    ((lay.Layout.data_limit - lay.Layout.data_base) mod 0x400 = 0);
  Alcotest.(check bool) "attacker declares globals" true
    (lay.Layout.globals_size > 0);
  Alcotest.(check bool) "target is above the declared globals" true
    (tgt >= lay.Layout.data_base + lay.Layout.globals_size);
  Alcotest.(check bool) "target is below the segment limit" true
    (tgt < lay.Layout.data_limit)

let test_mpu_slack_leak () =
  (* The write lands: no fault, no breach — the documented granularity
     over-permission.  Contrast with test_mpu_probe_below. *)
  List.iter
    (fun name ->
      let cell =
        Campaign.run_cell ~attack:(Attacks.find name) ~mode:Iso.Mpu_assisted
          ~seed
      in
      Alcotest.(check bool)
        (name ^ " slack write is tolerated") true cell.Campaign.cl_match;
      Alcotest.(check int)
        (name ^ " no oracle breach") 0 cell.Campaign.cl_breach_count;
      Alcotest.(check bool)
        (name ^ " victim canary intact") true cell.Campaign.cl_canary_intact;
      match cell.Campaign.cl_observed with
      | Campaign.O_leak | Campaign.O_silent -> ()
      | o ->
        Alcotest.failf "%s: expected leak/silent, observed %s" name
          (Campaign.observed_name o))
    [ "src_probe_slack"; "bin_probe_slack" ]

let test_mpu_probe_below () =
  (* Two bytes below the segment base is outside the granule: the MPU
     faults the very store that the slack probe got away with. *)
  let cell =
    Campaign.run_cell
      ~attack:(Attacks.find "bin_probe_below")
      ~mode:Iso.Mpu_assisted ~seed
  in
  Alcotest.(check bool) "below-base store matches" true cell.Campaign.cl_match;
  (match cell.Campaign.cl_observed with
  | Campaign.O_hw_fault -> ()
  | o ->
    Alcotest.failf "expected hw-fault below base, observed %s"
      (Campaign.observed_name o));
  Alcotest.(check bool) "oracle holds" true cell.Campaign.cl_oracle_ok

(* ------------------------------------------------------------------ *)
(* Oracle: catches a real cross-app breach, stays quiet on a contained
   one. *)

let test_oracle_breach_detection () =
  let cell =
    Campaign.run_cell
      ~attack:(Attacks.find "bin_wild_write_victim")
      ~mode:Iso.Software_only ~seed
  in
  Alcotest.(check bool) "binary attack defeats software-only" true
    cell.Campaign.cl_match;
  Alcotest.(check bool) "oracle recorded the breach" true
    (cell.Campaign.cl_breach_count > 0);
  Alcotest.(check bool) "victim canary was clobbered" false
    cell.Campaign.cl_canary_intact

let test_oracle_contained () =
  let cell =
    Campaign.run_cell
      ~attack:(Attacks.find "src_wild_write_victim")
      ~mode:Iso.Mpu_assisted ~seed
  in
  Alcotest.(check bool) "MPU contains the wild write" true
    cell.Campaign.cl_match;
  Alcotest.(check int) "no breach recorded" 0 cell.Campaign.cl_breach_count;
  Alcotest.(check bool) "canary intact" true cell.Campaign.cl_canary_intact;
  Alcotest.(check bool) "victim still schedulable" true
    cell.Campaign.cl_victim_alive

(* ------------------------------------------------------------------ *)
(* Quick corpus smoke: the CI subset matches expectations under the
   two extreme modes. *)

let test_quick_corpus () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          let cell =
            Campaign.run_cell ~attack:(Attacks.find name) ~mode ~seed
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s matches" name (Iso.name mode))
            true cell.Campaign.cl_match;
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s oracle ok" name (Iso.name mode))
            true cell.Campaign.cl_oracle_ok;
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s lint ok" name (Iso.name mode))
            true cell.Campaign.cl_lint_ok)
        [ Iso.No_isolation; Iso.Mpu_assisted ])
    Campaign.quick_names

(* ------------------------------------------------------------------ *)
(* Corpus ⇔ proof crosscheck: every expectation in the attack corpus
   falls out of the abstract machine as a theorem or as a concretely
   replayed counterexample — zero mismatches tolerated. *)

let test_crosscheck_total () =
  List.iter
    (fun (a : Attacks.t) ->
      if Proofcheck.scenario_of a = None then
        Alcotest.failf "%s has no abstract restatement" a.Attacks.atk_name)
    Attacks.corpus

let test_crosscheck_matrix () =
  let rows = Proofcheck.run () in
  Alcotest.(check int) "one row per attack x mode"
    (4 * List.length Attacks.corpus)
    (List.length rows);
  List.iter
    (fun r ->
      if not (Proofcheck.row_ok r) then
        Alcotest.failf "%s" (Format.asprintf "%a" Proofcheck.pp_row r))
    rows;
  (* the negative cells really are backed by concrete replays *)
  let replayed =
    List.length
      (List.filter
         (fun r -> r.Proofcheck.cc_verdict = Proofcheck.V_counterexample)
         rows)
  in
  Alcotest.(check bool) "some counterexamples were replayed" true (replayed > 0)

(* The vector-page hole end-to-end: the Mpu_assisted guard is
   lower-bound-only and the MPU stops at fram_limit, so a compiled
   wild write at 0xFF80+ lands — the campaign cell must observe the
   breach the proof layer predicts (and software-only must guard it). *)
let test_vector_hole_campaign () =
  let attack = Attacks.find "src_wild_write_vectors" in
  let mpu = Campaign.run_cell ~attack ~mode:Iso.Mpu_assisted ~seed in
  Alcotest.(check bool) "mpu-assisted cell matches (breach expected)" true
    mpu.Campaign.cl_match;
  Alcotest.(check bool) "breach recorded above fram_limit" true
    (mpu.Campaign.cl_breach_count > 0);
  let sw = Campaign.run_cell ~attack ~mode:Iso.Software_only ~seed in
  Alcotest.(check bool) "software-only guard catches it" true
    sw.Campaign.cl_match;
  match sw.Campaign.cl_observed with
  | Campaign.O_guard _ -> ()
  | o ->
    Alcotest.failf "expected guard under software-only, observed %s"
      (Campaign.observed_name o)

(* ------------------------------------------------------------------ *)
(* Injector: seeded schedules reproduce exactly. *)

let test_injector_determinism () =
  let inj =
    Campaign.run_injection ~mode:Iso.Mpu_assisted ~target:`Regs ~seed:5
  in
  Alcotest.(check bool) "flips were applied" true (inj.Campaign.in_flips > 0);
  Alcotest.(check bool) "identical re-run reproduces" true
    inj.Campaign.in_deterministic

let test_injector_plan_reproducible () =
  let mk () =
    let m = Amulet_mcu.Machine.create () in
    let words =
      List.concat_map Amulet_mcu.Encode.encode
        [
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 2000,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.SUB,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Jump (Amulet_mcu.Opcode.JNE, -2);
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_absolute Amulet_mcu.Machine.halt_port );
        ]
    in
    Amulet_mcu.Machine.load_words m ~addr:0x4400 words;
    Amulet_mcu.Machine.set_reset_vector m 0x4400;
    Amulet_mcu.Machine.reset m;
    m
  in
  let run s =
    let m = mk () in
    let inj = Inject.arm (Inject.plan ~seed:s ~flips:4 ~window:(10, 2_000) Inject.Regs) m in
    ignore (Amulet_mcu.Machine.run m);
    (Inject.flips_done inj, Inject.log inj)
  in
  let f1, l1 = run 11 in
  let f2, l2 = run 11 in
  let _, l3 = run 12 in
  Alcotest.(check int) "all scheduled flips applied" 4 f1;
  Alcotest.(check int) "same seed, same flip count" f1 f2;
  Alcotest.(check (list string)) "same seed, same flip log" l1 l2;
  Alcotest.(check bool) "different seed, different schedule" true (l1 <> l3)

let test_injector_mpu_raw_replay () =
  (* Mpu_config flips go through [Mpu.raw_set] (the password/lock
     bypass): the same seed must leave the raw register file in the
     same final state, and the flips must land even when the unit is
     locked against MMIO writes. *)
  let module M = Amulet_mcu.Machine in
  let module Mpu = Amulet_mcu.Mpu in
  let mk () =
    let m = M.create () in
    let words =
      List.concat_map Amulet_mcu.Encode.encode
        [
          (* lock the MPU through the front door, then spin *)
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 0xA502,
              Amulet_mcu.Opcode.D_absolute Mpu.ctl0_addr );
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 500,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.SUB,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_reg 5 );
          Amulet_mcu.Opcode.Jump (Amulet_mcu.Opcode.JNE, -2);
          Amulet_mcu.Opcode.Fmt1
            ( Amulet_mcu.Opcode.MOV,
              Amulet_mcu.Word.W16,
              Amulet_mcu.Opcode.S_immediate 1,
              Amulet_mcu.Opcode.D_absolute M.halt_port );
        ]
    in
    M.load_words m ~addr:0x4400 words;
    M.set_reset_vector m 0x4400;
    M.reset m;
    m
  in
  let dump m =
    List.map
      (fun r -> Mpu.raw_get m.M.mpu r)
      [ Mpu.Raw_ctl0; Mpu.Raw_ctl1; Mpu.Raw_segb1; Mpu.Raw_segb2; Mpu.Raw_sam ]
  in
  (* control run, no injector: the firmware locks the unit via MMIO *)
  let clean =
    let m = mk () in
    ignore (M.run m);
    Alcotest.(check bool) "MPU locked by the firmware" true
      (Mpu.locked m.M.mpu);
    dump m
  in
  let run s =
    let m = mk () in
    let inj =
      Inject.arm (Inject.plan ~seed:s ~flips:6 ~window:(10, 1_000) Inject.Mpu_config) m
    in
    ignore (M.run m);
    (Inject.log inj, dump m)
  in
  let l1, d1 = run 77 in
  let l2, d2 = run 77 in
  let _, d3 = run 78 in
  Alcotest.(check bool) "flips were applied" true (l1 <> []);
  Alcotest.(check bool) "flips landed despite the lock" true (d1 <> clean);
  Alcotest.(check (list string)) "same seed, same flip log" l1 l2;
  Alcotest.(check (list int)) "same seed, same raw register file" d1 d2;
  Alcotest.(check bool) "different seed, different register file" true
    (d1 <> d3)

(* An injector armed with an empty schedule must cost nothing: the
   same cycle total and a byte-identical profiler report as a run
   without it, while still observing every instruction. *)
let test_injector_idle_zero_cost () =
  let module Apps = Amulet_apps.Suite in
  let module Obs = Amulet_obs.Obs in
  let module Profile = Amulet_obs.Profile in
  let mode = Iso.Mpu_assisted in
  let run ~armed =
    let fw = Aft.build ~mode [ Apps.spec_for mode (Apps.find "pedometer") ] in
    let obs = Obs.create () in
    Obs.enable_profile obs fw;
    let k = Kernel.create ~scenario:Amulet_os.Sensors.Walking ~obs fw in
    let inj =
      if armed then
        Some
          (Inject.arm
             (Inject.plan ~seed:7 ~flips:0 ~window:(0, 1) Inject.Regs)
             k.Kernel.machine)
      else None
    in
    let _ = Kernel.run_for_ms k 5_000 in
    let report =
      match Obs.profile obs with
      | Some p ->
        Format.asprintf "%a" Profile.pp_report
          (Profile.report p ~machine:k.Kernel.machine)
      | None -> Alcotest.fail "no profiler"
    in
    Obs.close obs;
    Option.iter
      (fun inj ->
        Alcotest.(check int) "idle injector applied no flip" 0
          (Inject.flips_done inj);
        Alcotest.(check bool) "armed injector observed instructions" true
          (Inject.steps inj > 0))
      inj;
    (Amulet_mcu.Machine.cycles k.Kernel.machine, report)
  in
  let bare_cycles, bare_report = run ~armed:false in
  let armed_cycles, armed_report = run ~armed:true in
  Alcotest.(check int) "same cycle total" bare_cycles armed_cycles;
  Alcotest.(check string) "byte-identical profiler report" bare_report
    armed_report

(* ------------------------------------------------------------------ *)
(* Kernel integrity probes used by the campaign and amulet sim. *)

let benign_fw mode =
  let module Apps = Amulet_apps.Suite in
  Aft.build ~mode
    (List.map (Apps.spec_for mode) [ Apps.security_victim; Apps.security_carrier ])

let test_kernel_probes_clean () =
  let fw = benign_fw Iso.Mpu_assisted in
  let k = Kernel.create ~policy:Kernel.Disable ~seed fw in
  let _ = Kernel.run_for_ms k 2_000 in
  Alcotest.(check bool) "OS code checksum holds" true (Kernel.os_intact k);
  Alcotest.(check bool) "victim answers a liveness probe" true
    (Kernel.liveness_probe k ~app:0);
  Alcotest.(check (list (pair string string))) "no unrecovered faults" []
    (Kernel.unrecovered_faults k)

let test_kernel_probes_faulty () =
  let faulty =
    {|
void handle_init(int arg) { api_set_timer(100); }
void handle_timer(int arg) {
  int *p = (int*)0x4400;
  *p = 1;
}
|}
  in
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted
      [
        { Aft.name = "victim"; source = Amulet_apps.Sec_sources.victim };
        { Aft.name = "faulty"; source = faulty };
      ]
  in
  let k = Kernel.create ~policy:Kernel.Disable ~seed fw in
  let _ = Kernel.run_for_ms k 2_000 in
  Alcotest.(check bool) "OS survives" true (Kernel.os_intact k);
  match Kernel.unrecovered_faults k with
  | [ (name, _) ] -> Alcotest.(check string) "faulty app disabled" "faulty" name
  | l -> Alcotest.failf "expected one unrecovered fault, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Campaign telemetry: the per-mode dispatch-cycle histograms are
   merged from per-cell shards computed on parallel domains; the merge
   is associative/commutative, so the result must not depend on the
   number of domains. *)

let test_campaign_hist_jobs_invariant () =
  let module Hist = Amulet_obs.Hist in
  let only = [ "src_probe_slack"; "src_gate_deputy_write" ] in
  let modes = [ Iso.Software_only; Iso.Mpu_assisted ] in
  let s1 = Campaign.run ~quick:true ~jobs:1 ~only ~modes ~seed () in
  let s2 = Campaign.run ~quick:true ~jobs:2 ~only ~modes ~seed () in
  Alcotest.(check int)
    "same mode count"
    (List.length s1.Campaign.s_dispatch)
    (List.length s2.Campaign.s_dispatch);
  Alcotest.(check bool)
    "histograms present" true
    (s1.Campaign.s_dispatch <> []);
  List.iter2
    (fun (m1, h1) (m2, h2) ->
      Alcotest.(check string) "mode order" (Iso.name m1) (Iso.name m2);
      Alcotest.(check bool)
        (Iso.name m1 ^ " histogram non-empty")
        true
        (Hist.count h1 > 0);
      Alcotest.(check bool)
        (Iso.name m1 ^ " merged hist independent of jobs")
        true (Hist.equal h1 h2))
    s1.Campaign.s_dispatch s2.Campaign.s_dispatch

let () =
  Alcotest.run "sec"
    [
      ( "mpu-granularity",
        [
          Alcotest.test_case "slack geometry" `Quick test_slack_geometry;
          Alcotest.test_case "slack write tolerated" `Quick test_mpu_slack_leak;
          Alcotest.test_case "below-base store faults" `Quick
            test_mpu_probe_below;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "detects a real breach" `Quick
            test_oracle_breach_detection;
          Alcotest.test_case "quiet when contained" `Quick test_oracle_contained;
        ] );
      ( "corpus",
        [ Alcotest.test_case "quick subset matches" `Slow test_quick_corpus ] );
      ( "telemetry",
        [
          Alcotest.test_case "merged hists independent of jobs" `Slow
            test_campaign_hist_jobs_invariant;
        ] );
      ( "proof-crosscheck",
        [
          Alcotest.test_case "every attack modelled" `Quick
            test_crosscheck_total;
          Alcotest.test_case "zero mismatches" `Quick test_crosscheck_matrix;
          Alcotest.test_case "vector hole end-to-end" `Slow
            test_vector_hole_campaign;
        ] );
      ( "injector",
        [
          Alcotest.test_case "campaign row deterministic" `Quick
            test_injector_determinism;
          Alcotest.test_case "plan reproducible" `Quick
            test_injector_plan_reproducible;
          Alcotest.test_case "mpu raw flips replay" `Quick
            test_injector_mpu_raw_replay;
          Alcotest.test_case "idle injector costs zero" `Quick
            test_injector_idle_zero_cost;
        ] );
      ( "kernel-probes",
        [
          Alcotest.test_case "clean run" `Quick test_kernel_probes_clean;
          Alcotest.test_case "faulty app surfaces" `Quick
            test_kernel_probes_faulty;
        ] );
    ]
