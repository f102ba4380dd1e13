(* Binary-verifier tests: every firmware the toolchain produces must
   pass the independent SFI check, and a tampered image — a guard
   whose bound immediate has been zeroed — must be rejected.  The
   verifier shares no code with the guard *emitter*, so these tests
   cross-check the compiler and the verifier against each other.  The
   verifier runs over the graph CFI reconstructs, as the certifier
   chains them. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Apps = Amulet_apps.Suite
module O = Amulet_mcu.Opcode
module V = Amulet_analysis.Verifier
module Cfi = Amulet_analysis.Cfi

let app_named name =
  List.find (fun (a : Apps.app) -> a.Apps.name = name) Apps.all

let build ?shadow ?elide mode (app : Apps.app) =
  Aft.build ~mode ?shadow ?elide [ Apps.spec_for mode app ]

let verify_image ~mode ~prefix image =
  match Cfi.reconstruct ~image ~mode ~prefix with
  | Ok cfg -> V.verify ~cfg
  | Error vs ->
    Alcotest.failf "%s: CFI rejected: %s" prefix
      (String.concat "; " (List.map (Format.asprintf "%a" Cfi.pp_violation) vs))

let verify fw name mode = verify_image ~mode ~prefix:name fw.Aft.fw_image

let check_ok what fw name mode =
  match verify fw name mode with
  | Ok _ -> ()
  | Error [] -> Alcotest.failf "%s: %s rejected with no violations" what name
  | Error (v :: _ as vs) ->
    Alcotest.failf "%s: %s rejected (%d violations, first: %s)" what name
      (List.length vs)
      (Format.asprintf "%a" V.pp_violation v)

(* ------------------------------------------------------------------ *)
(* Accept matrix: every suite app, every mode *)

let test_accepts mode () =
  List.iter
    (fun (app : Apps.app) ->
      let fw = build mode app in
      check_ok (Iso.name mode) fw app.Apps.name mode)
    Apps.all

(* Shadow stack and elision-off variants change the emitted patterns
   (shadow prologue/epilogue; full guard population) — spot-check a
   recursion-heavy, a call-heavy and a platform app. *)
let variant_apps = [ "quicksort"; "callheavy"; "pedometer" ]

let test_accepts_shadow mode () =
  List.iter
    (fun name ->
      let fw = build ~shadow:true mode (app_named name) in
      check_ok (Iso.name mode ^ "+shadow") fw name mode)
    variant_apps

let test_accepts_no_elide mode () =
  List.iter
    (fun name ->
      let fw = build ~elide:false mode (app_named name) in
      check_ok (Iso.name mode ^ "+no-elide") fw name mode)
    variant_apps

(* ------------------------------------------------------------------ *)
(* Rejection of a tampered image *)

let test_rejects_corrupt mode () =
  let fw = build mode (app_named "quicksort") in
  check_ok "pre-corruption" fw "quicksort" mode;
  match
    Amulet_sec.Attacks.corrupt_guard fw.Aft.fw_image ~prefix:"quicksort"
  with
  | None -> Alcotest.fail "no lower-bound guard found to corrupt"
  | Some (_, image) -> (
    match verify_image ~mode ~prefix:"quicksort" image with
    | Ok _ -> Alcotest.fail "verifier accepted a tampered image"
    | Error vs ->
      Alcotest.(check bool) "at least one violation" true (vs <> []))

(* ------------------------------------------------------------------ *)
(* Stats and error handling *)

let test_stats () =
  let fw = build Iso.Software_only (app_named "quicksort") in
  match verify fw "quicksort" Iso.Software_only with
  | Error _ -> Alcotest.fail "quicksort rejected"
  | Ok st ->
    Alcotest.(check bool) "instructions seen" true (st.V.v_insns > 0);
    Alcotest.(check bool) "blocks seen" true (st.V.v_blocks > 0);
    Alcotest.(check bool) "stores proved" true (st.V.v_stores >= 1);
    Alcotest.(check bool) "returns proved" true (st.V.v_rets >= 1)

let test_unknown_prefix () =
  let fw = build Iso.Software_only (app_named "quicksort") in
  match verify_image ~mode:Iso.Software_only ~prefix:"nope" fw.Aft.fw_image with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown prefix"

(* Hand-assembled software-only guard pair on R5 in front of a store
   to [-2(R5)], with [between] placed between the lower-bound CMP and
   its Jcc.  The guards confine R5 to [data_lo + 2, data_hi), so the
   store stays in [data_lo, data_hi - 2) — a negative offset, which
   the compiler's own accesses never use.  [t$g] is a callee that sets
   the carry flag and never returns. *)
module A = Amulet_link.Asm

let guarded_store ?(between = []) () =
  let module L = Amulet_link.Linker in
  let prefix = "t" in
  let fail = "t$$fail" and callee = Iso.mangle ~prefix "g" in
  let code =
    [
      A.label (Iso.mangle ~prefix "main");
      A.cmp (A.Simm (A.Off (Iso.data_lo_sym ~prefix, 2))) (A.Dreg 5);
    ]
    @ between
    @ [
        A.jcc O.JNC fail;
        A.cmp (A.Simm (A.Sym (Iso.data_hi_sym ~prefix))) (A.Dreg 5);
        A.jcc O.JC fail;
        A.mov (A.imm 0) (A.Didx (5, A.Num (-2)));
        A.label fail;
        A.mov (A.imm 1) (A.Dabs (A.Num Amulet_mcu.Machine.halt_port));
        A.jmp fail;
        A.label callee;
        A.bis (A.imm 1) (A.Dreg A.r_sr);
        A.jmp callee;
      ]
  in
  let image =
    L.link ~entry:(Iso.mangle ~prefix "main")
      [
        { L.name = Iso.code_section ~prefix; base = 0x8000; items = code };
        { L.name = Iso.data_section ~prefix; base = 0xA000;
          items = [ A.Space 16 ] };
      ]
  in
  verify_image ~mode:Iso.Software_only ~prefix image

let test_negative_index () =
  match guarded_store () with
  | Ok st -> Alcotest.(check int) "store proved" 1 st.V.v_stores
  | Error vs ->
    Alcotest.failf "rejected: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" V.pp_violation) vs))

(* The lower-bound CMP's refinement ends at the next instruction that
   can change the flags; the Jcc then tests flags the CMP did not set,
   so the store must be rejected. *)
let flag_clobbers =
  [
    ("RRA R6", A.Ins (A.I2 (O.RRA, Amulet_mcu.Word.W16, A.Sreg 6)));
    ("SXT R6", A.Ins (A.I2 (O.SXT, Amulet_mcu.Word.W16, A.Sreg 6)));
    ("BIS #1, SR", A.bis (A.imm 1) (A.Dreg A.r_sr));
    ("MOV #1, SR", A.mov (A.imm 1) (A.Dreg A.r_sr));
    ("CALL #t$g", A.call (Iso.mangle ~prefix:"t" "g"));
  ]

let test_flags_die () =
  List.iter
    (fun (what, insn) ->
      match guarded_store ~between:[ insn ] () with
      | Ok _ -> Alcotest.failf "%s between CMP and Jcc: store accepted" what
      | Error vs ->
        Alcotest.(check bool)
          (what ^ ": the store is the violation")
          true
          (List.exists
             (fun v ->
               v.V.vreason
               = "store address not proven inside the app data section")
             vs))
    flag_clobbers

(* SWPB and PUSH leave the flags alone: the comparison stays live. *)
let test_flags_survive () =
  List.iter
    (fun (what, insn) ->
      match guarded_store ~between:[ insn ] () with
      | Ok st -> Alcotest.(check int) (what ^ ": store proved") 1 st.V.v_stores
      | Error _ -> Alcotest.failf "%s between CMP and Jcc: rejected" what)
    [
      ("SWPB R6", A.Ins (A.I2 (O.SWPB, Amulet_mcu.Word.W16, A.Sreg 6)));
      ("PUSH R6", A.push (A.Sreg 6));
    ]

(* ------------------------------------------------------------------ *)
(* CLI: a firmware with zero app sections must fail, not pass
   vacuously — regression for the empty-positional-args case. *)

(* resolve relative to the runtest cwd (the test directory) or the
   project root, whichever exists, so [dune exec] also works *)
let amulet_exe =
  let candidates = [ "../bin/amulet.exe"; "_build/default/bin/amulet.exe" ] in
  try List.find Sys.file_exists candidates with Not_found -> List.hd candidates

let run_cli args =
  Sys.command
    (Filename.quote_command amulet_exe ("verify" :: args) ^ " >/dev/null 2>&1")

let test_cli_zero_apps () =
  Alcotest.(check bool) "no apps: non-zero exit" true (run_cli [] <> 0);
  Alcotest.(check int) "one app: zero exit" 0 (run_cli [ "pedometer" ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verify"
    [
      ( "accept",
        List.map
          (fun mode ->
            Alcotest.test_case
              ("all suite apps under " ^ Iso.name mode)
              `Quick (test_accepts mode))
          Iso.all
        @ [
            Alcotest.test_case "shadow stack (software)" `Quick
              (test_accepts_shadow Iso.Software_only);
            Alcotest.test_case "shadow stack (mpu)" `Quick
              (test_accepts_shadow Iso.Mpu_assisted);
            Alcotest.test_case "elision off (software)" `Quick
              (test_accepts_no_elide Iso.Software_only);
            Alcotest.test_case "elision off (mpu)" `Quick
              (test_accepts_no_elide Iso.Mpu_assisted);
          ] );
      ( "reject",
        [
          Alcotest.test_case "corrupted guard (software)" `Quick
            (test_rejects_corrupt Iso.Software_only);
          Alcotest.test_case "corrupted guard (mpu)" `Quick
            (test_rejects_corrupt Iso.Mpu_assisted);
        ] );
      ( "offsets",
        [
          Alcotest.test_case "negative index off a guarded base" `Quick
            test_negative_index;
          Alcotest.test_case "flags die between CMP and Jcc" `Quick
            test_flags_die;
          Alcotest.test_case "SWPB and PUSH keep the comparison" `Quick
            test_flags_survive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "stats sanity" `Quick test_stats;
          Alcotest.test_case "unknown prefix" `Quick test_unknown_prefix;
        ] );
      ( "cli",
        [ Alcotest.test_case "zero apps rejected" `Quick test_cli_zero_apps ] );
    ]
