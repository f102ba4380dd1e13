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
  let image = I.patch image ~addr:entry [ bad ] in
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

(* The stack and gate passes as the certifier chains them. *)
let chain_of ~mode ~prefix image =
  let g = An.Lint.gates_chain ~image ~mode ~prefix in
  match Lazy.force g.An.Lint.g_cfi with
  | Ok _ -> g
  | Error vs ->
    Alcotest.failf "CFI rejected %s:@.%s" prefix
      (String.concat "\n"
         (List.map (Format.asprintf "%a" An.Cfi.pp_violation) vs))

let stack_of ~mode ~prefix image =
  Option.get (Lazy.force (chain_of ~mode ~prefix image).An.Lint.g_stack)

let test_stackcert_suite () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let fw = Aft.build ~mode specs in
      List.iter
        (fun (spec : Aft.app_spec) ->
          let r = stack_of ~mode ~prefix:spec.name fw.Aft.fw_image in
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
      let r = stack_of ~mode ~prefix:spec.name fw.Aft.fw_image in
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
  let r = stack_of ~mode ~prefix:"ovf" fw.Aft.fw_image in
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
  Option.get (Lazy.force (chain_of ~mode ~prefix image).An.Lint.g_gates)

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
  let r = An.Lint.run ~image ~mode ~apps:(An.Section.apps image) in
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
  Alcotest.(check (list string)) "no apps detected" [] (An.Section.apps image);
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
  Alcotest.(check (list string))
    "gateheavy gates certified"
    [ "api_log_append"; "api_read_accel" ]
    (An.Gate_taint.stamped fw.Aft.fw_image ~prefix:"gateheavy");
  let fw' = Aft.build ~mode ~certify:false [ spec ] in
  Alcotest.(check (list string)) "no note without certification" []
    (An.Gate_taint.stamped fw'.Aft.fw_image ~prefix:"gateheavy")

(* What the AFT stamps at build time is what the certifier concludes
   about the finished image: stamping the notes changes nothing the
   gates chain reads. *)
let test_lint_stamp_matches_report () =
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let image = (Aft.build ~mode specs).Aft.fw_image in
      let r = An.Lint.run ~image ~mode ~apps:(An.Section.apps image) in
      Alcotest.(check int) "one report per app" (List.length specs)
        (List.length r.An.Lint.l_apps);
      List.iter
        (fun (a : An.Lint.app_report) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s" (Iso.name mode) a.An.Lint.r_app)
            a.An.Lint.r_certified
            (An.Gate_taint.stamped image ~prefix:a.An.Lint.r_app))
        r.An.Lint.l_apps)
    modes

(* Certification rests on the SFI verdict: turn one indexed store in
   gateheavy's handler into a same-length absolute store into OS data.
   CFI and the gate pass are blind to the store's target and still
   pass, but the verifier rejects it, so nothing may be certified. *)
let test_gates_need_sfi () =
  let mode = Iso.Mpu_assisted in
  let fw = Aft.build ~mode [ Suite.spec_for mode Suite.gateheavy ] in
  let image = fw.Aft.fw_image and prefix = "gateheavy" in
  let handler = I.symbol image "gateheavy$handle_button" in
  let cfg = Result.get_ok (An.Cfi.reconstruct ~image ~mode ~prefix) in
  let fn =
    List.find
      (fun (f : An.Cfi.func) -> f.An.Cfi.f_entry = handler)
      (An.Cfi.functions cfg)
  in
  let module O = Amulet_mcu.Opcode in
  let target = fw.Aft.fw_layout.Amulet_aft.Layout.os_data_base in
  let store =
    List.concat_map (fun (b : An.Cfi.block) -> b.An.Cfi.b_insns)
      fn.An.Cfi.f_blocks
    |> List.find_map (fun (i : An.Cfi.insn) ->
           match i.An.Cfi.i_op with
           | O.Fmt1 (op, w, src, O.D_indexed _) when O.writes_back op ->
             Some (i, O.Fmt1 (op, w, src, O.D_absolute target))
           | _ -> None)
  in
  let insn, patched =
    match store with
    | Some s -> s
    | None -> Alcotest.fail "no indexed store in gateheavy's handler"
  in
  let words = Amulet_mcu.Encode.encode patched in
  Alcotest.(check int) "same length" insn.An.Cfi.i_size (2 * List.length words);
  let image = I.patch image ~addr:insn.An.Cfi.i_addr words in
  let g = An.Lint.gates_chain ~image ~mode ~prefix in
  Alcotest.(check bool) "SFI rejects the patched store" true
    (match Lazy.force g.An.Lint.g_sfi with
    | Some (Error _) -> true
    | _ -> false);
  Alcotest.(check bool) "CFI still passes" true
    (Result.is_ok (Lazy.force g.An.Lint.g_cfi));
  Alcotest.(check (list string))
    "gate pass alone would certify"
    [ "api_log_append"; "api_read_accel" ]
    (Option.get (Lazy.force g.An.Lint.g_gates)).An.Gate_taint.gt_certified;
  Alcotest.(check (list string)) "nothing certified" []
    (An.Lint.certified_gates ~image ~mode ~prefix)

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

(* ------------------------------------------------------------------ *)
(* The symbol contract: the stack bytes the toolchain declares for its
   helpers and gates match the code they describe, and every direct
   call in a built image resolves to a declared kind. *)

module A = Amulet_link.Asm
module Op = Amulet_mcu.Opcode
module Rt = Amulet_cc.Runtime
module Apis = Amulet_cc.Apis

(* The instructions from [label] up to the first RET (or to the end). *)
let body_of items label =
  let rec from = function
    | [] -> Alcotest.failf "no label %s" label
    | A.Label l :: rest when l = label -> rest
    | _ :: rest -> from rest
  in
  let rec upto acc = function
    | [] -> List.rev acc
    | A.Ins (A.I1 (Op.MOV, _, A.Sinc 1, A.Dreg 0)) :: _ -> List.rev acc
    | A.Ins i :: rest -> upto (i :: acc) rest
    | _ :: rest -> upto acc rest
  in
  upto [] (from items)

(* Return address, plus the deepest point of the helper's own pushes
   and nested calls. *)
let rec derived_bytes label =
  let deepest, _ =
    List.fold_left
      (fun (deepest, depth) i ->
        match i with
        | A.I2 (Op.PUSH, _, _) -> (max deepest (depth + 2), depth + 2)
        | A.I1 (Op.MOV, _, A.Sinc 1, _) -> (deepest, depth - 2)
        | A.I2 (Op.CALL, _, A.Simm (A.Sym callee)) ->
          (max deepest (depth + derived_bytes callee), depth)
        | _ -> (deepest, depth))
      (0, 0) (body_of Rt.items label)
  in
  2 + deepest

let test_helper_bytes_match_code () =
  List.iter
    (fun (h : Rt.helper) ->
      Alcotest.(check int) h.Rt.name (derived_bytes h.Rt.name) h.Rt.stack_bytes)
    Rt.helpers

(* The gate's pushes happen before it writes SP or calls the host. *)
let test_gate_bytes_match_code () =
  List.iter
    (fun mode ->
      let items =
        Amulet_aft.Stubs.gates ~mode ~os_cfg:Amulet_aft.Stubs.placeholder_cfg
      in
      let rec pushes = function
        | [] -> 0
        | A.I2 (Op.PUSH, _, _) :: rest -> 2 + pushes rest
        | A.I1 (_, _, _, A.Dreg 1) :: _ -> 0
        | A.I1 (_, _, _, A.Dabs (A.Num p)) :: _
          when p = Amulet_mcu.Machine.host_call_port ->
          0
        | _ :: rest -> pushes rest
      in
      Array.iter
        (fun (e : Apis.entry) ->
          Alcotest.(check int)
            (Iso.name mode ^ " " ^ e.Apis.name)
            (2 + pushes (body_of items (Apis.gate_label e.Apis.name)))
            Apis.gate_stack_bytes)
        Apis.table)
    modes

let test_calls_resolve () =
  let check what cfg (i : An.Cfi.insn) =
    match (i.An.Cfi.i_op, An.Cfi.call_target cfg i.An.Cfi.i_op) with
    | ( Op.Fmt2 (Op.CALL, _, Op.S_immediate _),
        Some
          ( An.Cfi.C_local _
          | An.Cfi.C_extern (_, (An.Section.Helper _ | An.Section.Gate _)) ) )
      ->
      ()
    | Op.Fmt2 (Op.CALL, _, Op.S_immediate k), _ ->
      Alcotest.failf "%s: call to %04X at %04X is unclassified" what k
        i.An.Cfi.i_addr
    | _ -> ()
  in
  List.iter
    (fun mode ->
      let specs = List.map (Suite.spec_for mode) Suite.all in
      let image = (Aft.build ~mode specs).Aft.fw_image in
      List.iter
        (fun (spec : Aft.app_spec) ->
          let what = Iso.name mode ^ "/" ^ spec.name in
          match An.Cfi.reconstruct ~image ~mode ~prefix:spec.name with
          | Error _ -> Alcotest.failf "%s: CFI rejected" what
          | Ok cfg ->
            List.iter
              (fun (f : An.Cfi.func) ->
                List.iter
                  (fun (b : An.Cfi.block) ->
                    List.iter (check what cfg) b.An.Cfi.b_insns)
                  f.An.Cfi.f_blocks)
              (An.Cfi.functions cfg))
        specs)
    modes

(* The trampoline's pushes after its last SP write land on the app
   stack before the handler runs. *)
let test_tramp_bytes_match_code () =
  List.iter
    (fun mode ->
      List.iter
        (fun shadow ->
          let items =
            Amulet_aft.Stubs.trampoline ~mode ~shadow ~name:"app"
              ~cfg:Amulet_aft.Stubs.placeholder_cfg ~stack_top:0xA400 ()
          in
          let bytes =
            List.fold_left
              (fun n item ->
                match item with
                | A.Ins (A.I1 (op, _, _, A.Dreg 1)) when Op.writes_back op -> 0
                | A.Ins (A.I2 (Op.PUSH, _, _)) -> n + 2
                | _ -> n)
              0 items
          in
          Alcotest.(check int)
            (Printf.sprintf "%s%s" (Iso.name mode)
               (if shadow then "+shadow" else ""))
            bytes Iso.tramp_stack_bytes)
        [ false; true ])
    modes

(* ------------------------------------------------------------------ *)
(* Reader totality: a corrupted code section gets a report, never an
   exception, and every SFI/CFI error is located inside the section
   it certifies. *)

let mutant_apps = [ "quicksort"; "pedometer"; "callheavy"; "activity" ]

let mutant_base =
  let cache = Hashtbl.create 16 in
  fun mode name ->
    match Hashtbl.find_opt cache (mode, name) with
    | Some b -> b
    | None ->
      let app =
        List.find (fun (a : Suite.app) -> a.Suite.name = name) Suite.all
      in
      let image = (Aft.build ~mode [ Suite.spec_for mode app ]).Aft.fw_image in
      let b = (image, An.Section.of_image image ~prefix:name) in
      Hashtbl.replace cache (mode, name) b;
      b

let corrupted_images_lint mode =
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl mutant_apps)
        (list_size (int_range 1 3)
           (pair (int_bound 0xFFFF) (int_bound 0xFFFF))))
  in
  let print (name, ms) =
    Printf.sprintf "%s: %s" name
      (String.concat ", "
         (List.map (fun (k, w) -> Printf.sprintf "word %d := %04X" k w) ms))
  in
  QCheck2.Test.make ~count:250 ~print
    ~name:("corrupted code sections lint (" ^ Iso.name mode ^ ")")
    gen
    (fun (name, ms) ->
      let image, sec = mutant_base mode name in
      let words = (sec.An.Section.s_code_hi - sec.An.Section.s_code_lo) / 2 in
      let word_addr k = sec.An.Section.s_code_lo + (2 * (k mod words)) in
      let image =
        List.fold_left
          (fun img (k, w) -> I.patch img ~addr:(word_addr k) [ w ])
          image ms
      in
      let r = An.Lint.run ~image ~mode ~apps:[ name ] in
      List.for_all
        (fun (d : An.Lint.diag) ->
          d.An.Lint.d_severity <> An.Lint.Error
          || (d.An.Lint.d_pass <> "sfi" && d.An.Lint.d_pass <> "cfi")
          ||
          match d.An.Lint.d_addr with
          | Some a ->
            a >= sec.An.Section.s_code_lo && a < sec.An.Section.s_code_hi
          | None -> false)
        r.An.Lint.l_diags)

let suite =
  [
    ( "contract",
      [
        Alcotest.test_case "helper stack bytes match their code" `Quick
          test_helper_bytes_match_code;
        Alcotest.test_case "gate stack bytes match its code" `Quick
          test_gate_bytes_match_code;
        Alcotest.test_case "every direct call resolves" `Quick
          test_calls_resolve;
        Alcotest.test_case "trampoline stack bytes match its code" `Quick
          test_tramp_bytes_match_code;
      ] );
    ( "readers",
      List.map
        (fun mode ->
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5EED |])
            (corrupted_images_lint mode))
        modes );
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
        Alcotest.test_case "stamped notes match the report" `Quick
          test_lint_stamp_matches_report;
        Alcotest.test_case "certified gates need SFI" `Quick
          test_gates_need_sfi;
        Alcotest.test_case "objdump --cfg on an example" `Quick
          test_objdump_cfg;
      ] );
  ]

let () = Alcotest.run "lint" suite
