(* Binary-verifier tests: every firmware the toolchain produces must
   pass the independent SFI check, and a tampered image — a guard
   whose bound immediate has been zeroed — must be rejected.  The
   verifier shares no code with the guard *emitter*, so these tests
   cross-check the compiler and the verifier against each other. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Apps = Amulet_apps.Suite
module I = Amulet_link.Image
module O = Amulet_mcu.Opcode
module V = Amulet_analysis.Verifier

let app_named name =
  List.find (fun (a : Apps.app) -> a.Apps.name = name) Apps.all

let build ?shadow ?elide mode (app : Apps.app) =
  Aft.build ~mode ?shadow ?elide [ Apps.spec_for mode app ]

let verify fw name mode = V.verify_app ~image:fw.Aft.fw_image ~mode ~prefix:name

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

let fetch_of (image : I.t) a =
  let rec go = function
    | [] -> 0
    | (base, b) :: rest ->
      if a >= base && a + 1 < base + Bytes.length b then
        Char.code (Bytes.get b (a - base))
        lor (Char.code (Bytes.get b (a - base + 1)) lsl 8)
      else go rest
  in
  go image.I.chunks

let poke (image : I.t) a v =
  List.iter
    (fun (base, b) ->
      if a >= base && a + 1 < base + Bytes.length b then begin
        Bytes.set b (a - base) (Char.chr (v land 0xFF));
        Bytes.set b (a - base + 1) (Char.chr ((v lsr 8) land 0xFF))
      end)
    image.I.chunks

(* Zero the immediate of the first lower-bound guard comparison in the
   app's code section: the guard still executes but now compares the
   pointer against 0, so the verifier can no longer derive the lower
   bound the store needs. *)
let corrupt_guard (image : I.t) ~prefix =
  let code_lo = I.symbol image (Iso.code_lo_sym ~prefix) in
  let code_hi = I.symbol image (Iso.code_hi_sym ~prefix) in
  let data_lo = I.symbol image (Iso.data_lo_sym ~prefix) in
  let fetch = fetch_of image in
  let rec scan a =
    if a >= code_hi then None
    else
      match Amulet_mcu.Decode.decode ~fetch ~addr:a with
      | exception Amulet_mcu.Decode.Illegal _ -> scan (a + 2)
      | O.Fmt1 (O.CMP, _, O.S_immediate k, O.D_reg r), _
        when k land 0xFFFF = data_lo && r >= 4 ->
        poke image (a + 2) 0;
        Some a
      | _, size -> scan (a + size)
  in
  scan code_lo

let test_rejects_corrupt mode () =
  let fw = build mode (app_named "quicksort") in
  check_ok "pre-corruption" fw "quicksort" mode;
  match corrupt_guard fw.Aft.fw_image ~prefix:"quicksort" with
  | None -> Alcotest.fail "no lower-bound guard found to corrupt"
  | Some _ -> (
    match verify fw "quicksort" mode with
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
  match
    V.verify_app ~image:fw.Aft.fw_image ~mode:Iso.Software_only ~prefix:"nope"
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown prefix"

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
      ( "stats",
        [
          Alcotest.test_case "stats sanity" `Quick test_stats;
          Alcotest.test_case "unknown prefix" `Quick test_unknown_prefix;
        ] );
      ( "cli",
        [ Alcotest.test_case "zero apps rejected" `Quick test_cli_zero_apps ] );
    ]
