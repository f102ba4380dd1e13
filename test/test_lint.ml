(* Tests for the static-certification subsystem: CFI reconstruction,
   binary stack bounds, gate-argument provenance and the unified lint
   report. *)

module H = Test_support.Harness
module Iso = Amulet_cc.Isolation
module I = Amulet_link.Image
module An = Amulet_analysis
module Aft = Amulet_aft.Aft
module Suite = Amulet_apps.Suite

let modes = Iso.all

(* ------------------------------------------------------------------ *)
(* CFI accepts everything the toolchain produces *)

let cfi_ok ~mode ~prefix image label =
  match An.Cfi.reconstruct ~image ~mode ~prefix with
  | Ok _ -> ()
  | Error vs ->
    Alcotest.failf "%s: CFI rejected:@.%s" label
      (String.concat "\n"
         (List.map (Format.asprintf "%a" An.Cfi.pp_violation) vs))

let test_cfi_accepts_harness () =
  let src =
    "int g[8];\n\
     int mul(int a, int b) { return a * b; }\n\
     int main() {\n\
    \  int i;\n\
    \  for (i = 0; i < 8; i = i + 1) g[i] = mul(i, i + 1) % 7;\n\
    \  return g[3] + g[7 - 2];\n\
     }"
  in
  List.iter
    (fun mode ->
      let _cu, image = H.build ~mode src in
      cfi_ok ~mode ~prefix:"prog" image (Iso.name mode))
    modes

let test_cfi_accepts_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          cfi_ok ~mode ~prefix:spec.name fw.Aft.fw_image
            (Printf.sprintf "%s/%s" (Iso.name mode) spec.name))
        specs)
    modes

let test_cfi_shadow () =
  let src = "int f(int n) { return n + 1; }\nint main() { return f(41); }" in
  List.iter
    (fun mode ->
      let _cu, image = H.build ~mode ~shadow:true src in
      cfi_ok ~mode ~prefix:"prog" image ("shadow/" ^ Iso.name mode))
    modes

(* ------------------------------------------------------------------ *)
(* CFI rejects a patched-in computed jump with the instruction as
   witness *)

let patch_word image addr w =
  let chunks =
    List.map
      (fun (base, b) ->
        if addr >= base && addr + 1 < base + Bytes.length b then begin
          let b = Bytes.copy b in
          Bytes.set b (addr - base) (Char.chr (w land 0xFF));
          Bytes.set b (addr - base + 1) (Char.chr ((w lsr 8) land 0xFF));
          (base, b)
        end
        else (base, b))
      image.I.chunks
  in
  { image with I.chunks }

let test_cfi_rejects_computed_jump () =
  let mode = Iso.Mpu_assisted in
  let _cu, image =
    H.build ~mode "int f(int n) { return n * 3; }\nint main() { return f(5); }"
  in
  (* overwrite the single-word instruction at f's entry (PUSH FP) with
     MOV R5, PC — a computed jump no static policy can classify *)
  let entry = I.symbol image "prog$f" in
  let bad =
    List.hd
      (Amulet_mcu.Encode.encode
         (Amulet_mcu.Opcode.Fmt1
            (Amulet_mcu.Opcode.MOV, Amulet_mcu.Word.W16,
             Amulet_mcu.Opcode.S_reg 5, Amulet_mcu.Opcode.D_reg 0)))
  in
  let image = patch_word image entry bad in
  match An.Cfi.reconstruct ~image ~mode ~prefix:"prog" with
  | Ok _ -> Alcotest.fail "computed jump accepted"
  | Error vs ->
    Alcotest.(check bool)
      "witness names the offending instruction" true
      (List.exists
         (fun (v : An.Cfi.violation) ->
           v.cv_addr = entry
           && v.cv_reason = "computed jump (PC written from a register)")
         vs)

(* ------------------------------------------------------------------ *)
(* Binary stack bounds *)

let cfg_of ~mode ~prefix image =
  match An.Cfi.reconstruct ~image ~mode ~prefix with
  | Ok cfg -> cfg
  | Error vs ->
    Alcotest.failf "CFI rejected %s:@.%s" prefix
      (String.concat "\n"
         (List.map (Format.asprintf "%a" An.Cfi.pp_violation) vs))

let test_stackcert_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          let cfg = cfg_of ~mode ~prefix:spec.name fw.Aft.fw_image in
          let r = An.Stackcert.analyze ~cfg ~image:fw.Aft.fw_image in
          match r.An.Stackcert.sc_verdict with
          | An.Stackcert.Certified _ -> ()
          | An.Stackcert.Unbounded { fenced; _ } ->
            (* only the recursive quicksort variant may be unbounded,
               and in MPU mode the fence must be recognised *)
            Alcotest.(check string) "only quicksort recurses" "quicksort"
              spec.name;
            Alcotest.(check bool) "fence tracks mode" (Iso.uses_mpu mode)
              fenced
          | v ->
            Alcotest.failf "%s/%s: %a" (Iso.name mode) spec.name
              An.Stackcert.pp_verdict v)
        specs)
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* The binary bound must never exceed what the AFT actually reserved
   (the compiler's source-level estimate plus its safety margin) —
   otherwise either analysis is wrong. *)
let test_stackcert_cross_check () =
  let mode = Iso.Mpu_assisted in
  let specs = List.map (Suite.spec_for mode) Suite.all in
  let fw = Aft.build ~mode specs in
  List.iter2
    (fun (spec : Aft.app_spec) (ab : Aft.app_build) ->
      let cfg = cfg_of ~mode ~prefix:spec.name fw.Aft.fw_image in
      let r = An.Stackcert.analyze ~cfg ~image:fw.Aft.fw_image in
      match r.An.Stackcert.sc_verdict with
      | An.Stackcert.Certified { bound; _ } ->
        let src = ab.Aft.ab_compiled.Amulet_cc.Driver.stack_bytes in
        if bound > src + Aft.stack_margin then
          Alcotest.failf "%s: binary bound %d > source %d + margin %d"
            spec.name bound src Aft.stack_margin
      | _ -> ())
    specs fw.Aft.fw_apps

(* A function-pointer call hides the big callee from the source-level
   call graph, so the AFT sizes the region for main alone; the binary
   pass resolves the address-taken callee and must reject the image
   with the real chain as witness. *)
let overflow_src =
  "int big(int x) {\n\
  \  int a[600];\n\
  \  a[0] = x; a[599] = x + 1;\n\
  \  return a[0] + a[599];\n\
   }\n\
   int (*fp)(int);\n\
   int main() { fp = big; return fp(2); }"

let test_stackcert_rejects_overflow () =
  let mode = Iso.Mpu_assisted in
  let fw = Aft.build ~mode [ { Aft.name = "ovf"; source = overflow_src } ] in
  let cfg = cfg_of ~mode ~prefix:"ovf" fw.Aft.fw_image in
  let r = An.Stackcert.analyze ~cfg ~image:fw.Aft.fw_image in
  match r.An.Stackcert.sc_verdict with
  | An.Stackcert.Rejected { bound; region; chain } ->
    Alcotest.(check bool) "bound exceeds region" true (bound > region);
    Alcotest.(check bool)
      "witness chain reaches the hidden callee" true
      (List.mem "ovf$big" chain && List.mem "ovf$main" chain)
  | v -> Alcotest.failf "expected rejection, got %a" An.Stackcert.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Gate-argument provenance *)

let gate_of ~mode ~prefix image =
  let cfg = cfg_of ~mode ~prefix image in
  let stack = An.Stackcert.analyze ~cfg ~image in
  An.Gate_taint.analyze ~cfg ~stack ~image

(* In separate-stack modes every pointer a suite app passes to a gate
   is either a link-time constant or a frame slot with a certified FP
   bound, so every site must certify. *)
let test_gate_certifies_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          let gt = gate_of ~mode ~prefix:spec.name fw.Aft.fw_image in
          List.iter
            (fun (s : An.Gate_taint.site) ->
              if not s.An.Gate_taint.gs_certified then
                Alcotest.failf "%s/%s: %a" (Iso.name mode) spec.name
                  An.Gate_taint.pp_site s)
            gt.An.Gate_taint.gt_sites)
        specs)
    [ Iso.Software_only; Iso.Mpu_assisted ]

(* With a shared stack FP is not statically boundable: frame-relative
   arguments must stay uncertified while constant ones still certify. *)
let test_gate_shared_stack () =
  let mode = Iso.No_isolation in
  let specs = List.map (Suite.spec_for mode) Suite.all in
  let fw = Aft.build ~mode specs in
  let certified app =
    (gate_of ~mode ~prefix:app fw.Aft.fw_image).An.Gate_taint.gt_certified
  in
  (* pedometer reads accel samples into a local *)
  Alcotest.(check bool)
    "frame-relative arg stays dynamic" false
    (List.mem "api_read_accel" (certified "pedometer"));
  (* battery_meter passes globals only *)
  Alcotest.(check (list string))
    "constant args certify" [ "api_display_write"; "api_log_append" ]
    (certified "battery_meter")

(* A pointer that arrives as a function parameter has unknown
   provenance; the service must stay uncertified. *)
let test_gate_rejects_unknown_provenance () =
  let mode = Iso.Mpu_assisted in
  let src =
    "char buf[8];\n\
     int send(char *p, int n) { return api_log_append(p, n); }\n\
     int handle_timer(int t) { return send(buf, 4); }"
  in
  let fw = Aft.build ~mode [ { Aft.name = "fwd"; source = src } ] in
  let gt = gate_of ~mode ~prefix:"fwd" fw.Aft.fw_image in
  Alcotest.(check (list string)) "nothing certifies" []
    gt.An.Gate_taint.gt_certified;
  Alcotest.(check bool) "witness names the unknown argument" true
    (List.exists
       (fun (s : An.Gate_taint.site) ->
         s.An.Gate_taint.gs_service = "api_log_append"
         && (not s.An.Gate_taint.gs_certified)
         && s.An.Gate_taint.gs_reason = "arg 0: provenance unknown")
       gt.An.Gate_taint.gt_sites)

(* ------------------------------------------------------------------ *)
(* Unified lint report *)

let test_lint_suite_clean () =
  let mode = Iso.Mpu_assisted in
  let specs = List.map (Suite.spec_for mode) Suite.all in
  let fw = Aft.build ~mode specs in
  let image = fw.Aft.fw_image in
  let r = An.Lint.run ~image ~mode ~apps:(An.Lint.apps_of image) in
  Alcotest.(check int) "no errors" 0 r.An.Lint.l_errors;
  Alcotest.(check int)
    "one report per app"
    (List.length specs)
    (List.length r.An.Lint.l_apps)

(* An image with no app sections must produce an explicit error, not a
   vacuous pass — same contract the amulet verify CLI enforces. *)
let test_lint_zero_apps () =
  let mode = Iso.Mpu_assisted in
  let fw = Aft.build ~mode [] in
  let image = fw.Aft.fw_image in
  Alcotest.(check (list string)) "no apps detected" [] (An.Lint.apps_of image);
  let r = An.Lint.run ~image ~mode ~apps:[] in
  Alcotest.(check int) "one error" 1 r.An.Lint.l_errors;
  match r.An.Lint.l_diags with
  | [ d ] ->
    Alcotest.(check string) "image-level pass" "image" d.An.Lint.d_pass;
    Alcotest.(check string)
      "explicit message" "image has no app code sections: nothing was certified"
      d.An.Lint.d_message
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d"
            (List.length ds)

(* The AFT stamps certification results into the image notes; the
   kernel reads them back to elide gate-pointer validation. *)
let test_lint_notes_stamped () =
  let mode = Iso.Mpu_assisted in
  let spec = Suite.spec_for mode Suite.gateheavy in
  let fw = Aft.build ~mode [ spec ] in
  (match I.note fw.Aft.fw_image "cert.gates.gateheavy" with
  | Some svcs ->
    Alcotest.(check (list string))
      "gateheavy gates certified"
      [ "api_log_append"; "api_read_accel" ]
      (String.split_on_char ',' svcs)
  | None -> Alcotest.fail "certification note missing");
  let fw' = Aft.build ~mode ~certify:false [ spec ] in
  Alcotest.(check bool) "no note without certification" true
    (I.note fw'.Aft.fw_image "cert.gates.gateheavy" = None)

(* ------------------------------------------------------------------ *)
(* amulet objdump --cfg prints the reconstructed graph for an example *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* resolve relative to the runtest cwd (the test directory) or the
   project root, whichever exists, so [dune exec] also works *)
let locate candidates =
  try List.find Sys.file_exists candidates with Not_found -> List.hd candidates

let test_objdump_cfg () =
  let exe =
    locate [ "../bin/amulet.exe"; "_build/default/bin/amulet.exe" ]
  in
  let example =
    locate
      [ "../examples/wearc/blink_counter.c"; "examples/wearc/blink_counter.c" ]
  in
  let tmp = Filename.temp_file "cfg" ".out" in
  let cmd =
    Filename.quote_command exe [ "objdump"; "--cfg"; "-m"; "mpu"; example ]
    ^ " > " ^ Filename.quote tmp ^ " 2>&1"
  in
  let rc = Sys.command cmd in
  let ic = open_in_bin tmp in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check int) "exit 0" 0 rc;
  Alcotest.(check bool) "names the handler" true
    (contains out "blink_counter$handle_timer");
  Alcotest.(check bool) "shows cycle counts" true (contains out "cycles")

let suite =
  [
    ( "cfi",
      [
        Alcotest.test_case "accepts harness programs" `Quick
          test_cfi_accepts_harness;
        Alcotest.test_case "accepts the app suite" `Quick
          test_cfi_accepts_suite;
        Alcotest.test_case "accepts shadow builds" `Quick test_cfi_shadow;
        Alcotest.test_case "rejects computed jump" `Quick
          test_cfi_rejects_computed_jump;
      ] );
    ( "gate-taint",
      [
        Alcotest.test_case "certifies suite sites (separate stacks)" `Quick
          test_gate_certifies_suite;
        Alcotest.test_case "shared stack keeps frame args dynamic" `Quick
          test_gate_shared_stack;
        Alcotest.test_case "rejects unknown provenance" `Quick
          test_gate_rejects_unknown_provenance;
      ] );
    ( "stackcert",
      [
        Alcotest.test_case "certifies the app suite" `Quick
          test_stackcert_suite;
        Alcotest.test_case "binary bound within source bound" `Quick
          test_stackcert_cross_check;
        Alcotest.test_case "rejects hidden overflow" `Quick
          test_stackcert_rejects_overflow;
      ] );
    ( "report",
      [
        Alcotest.test_case "suite lints clean under mpu" `Quick
          test_lint_suite_clean;
        Alcotest.test_case "zero apps is an error" `Quick test_lint_zero_apps;
        Alcotest.test_case "certification notes stamped" `Quick
          test_lint_notes_stamped;
        Alcotest.test_case "objdump --cfg on an example" `Quick
          test_objdump_cfg;
      ] );
  ]

let () = Alcotest.run "lint" suite
