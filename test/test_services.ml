(* Coverage of every OS API service: each is invoked from WearC app
   code through its real gate, and its observable effect is checked.
   Also exercises the disassembler over a whole firmware image. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module W = Amulet_mcu.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build a one-shot app whose handle_button body is [body]; run it and
   return the kernel plus the value of its global "r". *)
let run_body ?(mode = Iso.Mpu_assisted) ?(scenario = Os.Sensors.Walking)
    ?(pre = "") body =
  let source =
    Printf.sprintf
      "int r = 0;\n%s\nvoid handle_init(int arg) { }\n\
       void handle_button(int arg) {\n%s\n}\n"
      pre body
  in
  let fw = Aft.build ~mode [ { Aft.name = "svc"; source } ] in
  let k = Os.Kernel.create ~scenario fw in
  let _ = Os.Kernel.run_for_ms k 2 in
  Os.Kernel.post k ~delay_ms:1 ~app:0 (Os.Event.Button 1) ~arg:1;
  let _ = Os.Kernel.run_for_ms k 50 in
  let st = Os.Kernel.app_by_name k "svc" in
  (match st.Os.Kernel.last_fault with
  | Some f -> Alcotest.failf "service app faulted: %a" Os.Kernel.pp_fault f
  | None -> ());
  let r =
    W.to_signed W.W16
      (M.mem_checked_read k.Os.Kernel.machine W.W16
         (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "svc$r"))
  in
  (k, r)

let test_get_time () =
  (* at ~3ms of virtual time, seconds = 0 *)
  let _, r = run_body "r = api_get_time() + 1;" in
  check_int "time+1" 1 r

let test_get_battery () =
  let _, r = run_body "r = api_get_battery();" in
  check_int "fresh battery" 100 r

let test_read_temperature () =
  let _, r = run_body "r = api_read_temperature();" in
  check_bool "tenths of C plausible" true (r > 250 && r < 420)

let test_read_light () =
  let _, r = run_body "r = api_read_light();" in
  check_bool "non-negative" true (r >= 0)

let test_read_heart_rate () =
  let _, r = run_body ~scenario:Os.Sensors.Running "r = api_read_heart_rate();" in
  check_bool "elevated when running" true (r > 120 && r < 200)

let test_read_accel_buffer () =
  let _, r =
    run_body ~pre:"int buf[8];"
      "int n = api_read_accel(buf, 8);\n\
       int i; int nz = 0;\n\
       for (i = 0; i < 8; i++) if (buf[i] != 0) nz += 1;\n\
       r = n * 100 + nz;"
  in
  check_bool "8 samples, mostly nonzero" true (r / 100 = 8 && r mod 100 >= 6)

let test_read_accel_xyz () =
  let _, r =
    run_body ~pre:"int v[3];" ~scenario:Os.Sensors.Resting
      "api_read_accel_xyz(v);\nr = v[2];"
  in
  (* gravity on z while resting: ~1000 milli-g *)
  check_bool "gravity on z" true (r > 900 && r < 1100)

let test_read_ppg () =
  let _, r =
    run_body ~pre:"int buf[4];"
      "int n = api_read_ppg(buf, 4);\nr = n * 1000 + (buf[0] > 1000);"
  in
  check_int "4 samples around midscale" 4001 r

let test_display_write_and_clear () =
  let k, _ = run_body "api_display_write(\"abc\", 2); r = 1;" in
  Alcotest.(check string) "line 2" "abc" (Os.Kernel.display_line k 2);
  let k2, _ = run_body "api_display_write(\"x\", 0); api_display_clear(); r = 1;" in
  Alcotest.(check string) "cleared" "" (Os.Kernel.display_line k2 0)

let test_log_append () =
  let k, r =
    run_body ~pre:"char rec[4];"
      "rec[0] = 'l'; rec[1] = 'o'; rec[2] = 'g'; rec[3] = '!';\n\
       r = api_log_append(rec, 4);"
  in
  check_int "bytes accepted" 4 r;
  Alcotest.(check string) "stored" "log!" (Os.Kernel.log_contents k)

let test_send_ble () =
  let k, r =
    run_body ~pre:"char pkt[3];"
      "pkt[0] = 'b'; pkt[1] = 'l'; pkt[2] = 'e';\nr = api_send_ble(pkt, 3);"
  in
  check_int "bytes sent" 3 r;
  Alcotest.(check string)
    "radio buffer" "ble"
    (Buffer.contents k.Os.Kernel.api.Os.Api.ble)

let test_rand_changes () =
  let _, r = run_body "int a = api_rand(); int b = api_rand(); r = (a != b);" in
  check_int "two draws differ" 1 r

let test_led_buzz_button () =
  let _, r =
    run_body "api_led(1); api_buzz(100); r = api_button_state() + 10;"
  in
  check_bool "button state is 0/1" true (r = 10 || r = 11)

let test_cancel_timer () =
  let source =
    "int fired = 0;\nint id = 0;\n\
     void handle_init(int arg) { id = api_set_timer(50); }\n\
     void handle_timer(int arg) { fired += 1; api_cancel_timer(id); }\n"
  in
  let fw = Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "tmr"; source } ] in
  let k = Os.Kernel.create fw in
  let _ = Os.Kernel.run_for_ms k 500 in
  let fired =
    M.mem_checked_read k.Os.Kernel.machine W.W16
      (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "tmr$fired")
  in
  check_int "fired exactly once" 1 fired

let test_unsubscribe () =
  let source =
    "int events = 0;\n\
     void handle_init(int arg) { api_subscribe(0, 20); }\n\
     void handle_accel(int arg) {\n\
    \  events += 1;\n\
    \  if (events >= 3) api_unsubscribe(0);\n\
     }\n"
  in
  let fw = Aft.build ~mode:Iso.Mpu_assisted [ { Aft.name = "sub"; source } ] in
  let k = Os.Kernel.create fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  let events =
    M.mem_checked_read k.Os.Kernel.machine W.W16
      (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "sub$events")
  in
  check_int "stopped after three" 3 events

let test_null_service () =
  let _, r = run_body "api_null(); r = 7;" in
  check_int "null is a no-op" 7 r

(* ------------------------------------------------------------------ *)
(* Disassembler over a real firmware image *)

let test_disasm_roundtrip () =
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted
      [ { Aft.name = "svc";
          source = "int r; void handle_init(int a) { r = a + 1; }" } ]
  in
  let m = M.create () in
  Amulet_link.Image.load fw.Aft.fw_image m;
  let fetch a = M.mem_checked_read m W.W16 a in
  let lay = List.hd fw.Aft.fw_layout.Amulet_aft.Layout.apps in
  let lines =
    Amulet_mcu.Disasm.range
      ~symbols:fw.Aft.fw_image.Amulet_link.Image.symbols ~fetch
      ~lo:lay.Amulet_aft.Layout.code_base
      ~hi:(lay.Amulet_aft.Layout.code_base + lay.Amulet_aft.Layout.code_size)
      ()
  in
  check_bool "produced lines" true (List.length lines > 10);
  let text =
    String.concat "\n" (List.map (fun l -> l.Amulet_mcu.Disasm.text) lines)
  in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "has label" true (contains "handle_init");
  check_bool "has MOV" true (contains "MOV");
  check_bool "has RET (MOV @SP+, PC)" true (contains "@R1+, R0")

(* ------------------------------------------------------------------ *)
(* The service table is the one statement of every pointer contract;
   these tie its three readers together. *)

module Apis = Amulet_cc.Apis

let test_contracts_match_signatures () =
  Array.iter
    (fun (e : Apis.entry) ->
      let params =
        match e.Apis.signature with Amulet_cc.Ctype.Func (_, a) -> a | _ -> []
      in
      let ptrs =
        List.concat
          (List.mapi
             (fun i t -> match t with Amulet_cc.Ctype.Ptr _ -> [ i ] | _ -> [])
             params)
      in
      match e.Apis.pointer with
      | None -> Alcotest.(check (list int)) (e.Apis.name ^ ": no pointer") [] ptrs
      | Some p -> (
        Alcotest.(check (list int))
          (e.Apis.name ^ ": the pointer parameter")
          [ p.Apis.ptr_arg ] ptrs;
        match Apis.length_arg p with
        | Some a ->
          check_bool (e.Apis.name ^ ": an int length") true
            (List.nth_opt params a = Some Amulet_cc.Ctype.Int)
        | None -> ()))
    Apis.table

(* Over signed length arguments below, inside and above every clamp:
   (a) the kernel accepts a pointer whose table extent ends exactly at
   the app's data limit and rejects one a byte higher; (b) no dispatch
   charges more than [Apis.worst_case_charge], the WCET pass's per-call
   bound, and a maximal call deep inside the region charges exactly
   that; (c) the extent the gate certifier takes at a length's upper
   bound (or, unknown, the clamp's maximum) covers the kernel's extent
   at every length up to it. *)
let test_contract_views () =
  let source = "void handle_init(int arg) { }\n" in
  let fw = Aft.build ~mode:Iso.Software_only [ { Aft.name = "svc"; source } ] in
  let k = Os.Kernel.create fw in
  let app = k.Os.Kernel.apps.(0) in
  let lay = app.Os.Kernel.build.Aft.ab_layout in
  let base = lay.Amulet_aft.Layout.data_base
  and limit = lay.Amulet_aft.Layout.data_limit in
  let m = k.Os.Kernel.machine in
  let call ~certified svc ~addr ~length =
    (* nonzero bytes, so a display string runs to the end of its span *)
    for a = base to limit - 1 do
      M.mem_checked_write m W.W8 a 0x41
    done;
    Amulet_mcu.Registers.set (M.regs m) 12 (addr land 0xFFFF);
    Amulet_mcu.Registers.set (M.regs m) 13 (length land 0xFFFF);
    let api = k.Os.Kernel.api in
    let before = api.Os.Api.charged_cycles in
    let effects =
      Os.Api.dispatch api m
        ~certified:(Array.make (Array.length Apis.table) certified)
        ~valid:app.Os.Kernel.valid_ranges ~now_ms:5_000 ~svc
    in
    ( List.exists (function Os.Api.Pointer_fault _ -> true | _ -> false) effects,
      api.Os.Api.charged_cycles - before )
  in
  let lengths = [ -32768; -1; 0; 1; 3; 31; 32; 33; 63; 64; 65; 127; 128; 129; 0x7FFF ] in
  Array.iteri
    (fun svc (e : Apis.entry) ->
      match e.Apis.pointer with
      | None -> ()
      | Some p ->
        let worst = Apis.worst_case_charge e in
        let widest = Apis.extent p None in
        List.iter
          (fun length ->
            let what = Printf.sprintf "%s, length %d" e.Apis.name length in
            let ext = Apis.extent p (Some length) in
            let rejected, charged = call ~certified:false svc ~addr:(limit - ext) ~length in
            check_bool (what ^ ": extent ends at the limit, accepted") false rejected;
            check_bool (what ^ ": charge within the bound") true
              (charged <= worst ~certified:false);
            let rejected, _ = call ~certified:false svc ~addr:(limit - ext + 1) ~length in
            check_bool (what ^ ": a byte higher, rejected") true rejected;
            let _, charged = call ~certified:true svc ~addr:(limit - ext) ~length in
            check_bool (what ^ ": certified charge within the bound") true
              (charged <= worst ~certified:true);
            check_bool (what ^ ": unknown length covers it") true (ext <= widest);
            List.iter
              (fun upper ->
                if 0 <= length && length <= upper then
                  check_bool
                    (Printf.sprintf "%s: upper bound %d covers it" what upper)
                    true
                    (ext <= Apis.extent p (Some upper)))
              lengths)
          lengths;
        let deep = limit - widest - 64 in
        check_bool (e.Apis.name ^ ": region fits a maximal call") true (deep >= base);
        List.iter
          (fun certified ->
            let _, charged = call ~certified svc ~addr:deep ~length:0x7FFF in
            check_int
              (Printf.sprintf "%s: maximal call (certified %b) charges the bound"
                 e.Apis.name certified)
              (worst ~certified) charged)
          [ false; true ])
    Apis.table

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "services"
    [
      ( "api",
        [
          quick "null" test_null_service;
          quick "get_time" test_get_time;
          quick "get_battery" test_get_battery;
          quick "read_temperature" test_read_temperature;
          quick "read_light" test_read_light;
          quick "read_heart_rate" test_read_heart_rate;
          quick "read_accel buffer" test_read_accel_buffer;
          quick "read_accel_xyz" test_read_accel_xyz;
          quick "read_ppg" test_read_ppg;
          quick "display write/clear" test_display_write_and_clear;
          quick "log_append" test_log_append;
          quick "send_ble" test_send_ble;
          quick "rand" test_rand_changes;
          quick "led/buzz/button" test_led_buzz_button;
          quick "cancel_timer" test_cancel_timer;
          quick "unsubscribe" test_unsubscribe;
        ] );
      ( "contract",
        [
          quick "pointer contracts match signatures"
            test_contracts_match_signatures;
          quick "kernel, certifier and WCET views agree" test_contract_views;
        ] );
      ("disasm", [ quick "firmware listing" test_disasm_roundtrip ]);
    ]
