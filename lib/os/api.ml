module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module W = Amulet_mcu.Word

type effect =
  | Set_timer of { id : int; period_ms : int }
  | Cancel_timer of int
  | Subscribe of { sensor : Event.sensor; rate_hz : int }
  | Unsubscribe of Event.sensor
  | Pointer_fault of { service : string; addr : int; len : int }

type t = {
  sensors : Sensors.t;
  display : string array;
  log : Buffer.t;
  ble : Buffer.t;
  mutable rand_state : int;
  mutable next_timer : int;
  mutable calls : int;
  mutable charged_cycles : int;
}

let create sensors =
  {
    sensors;
    display = Array.make 4 "";
    log = Buffer.create 256;
    ble = Buffer.create 256;
    rand_state = 0xACE1;
    next_timer = 1;
    calls = 0;
    charged_cycles = 0;
  }

let names = Array.of_list Amulet_cc.Apis.names
let service_count = Array.length names
let service_name svc = if svc >= 0 && svc < service_count then Some names.(svc) else None

(* Service costs are shared with the static WCET certifier: the table
   lives in {!Amulet_cc.Apis} so the dynamic charges here and the
   static per-call upper bounds are views of the same constants. *)
let base_charge = Amulet_cc.Apis.base_charge
let per_word_charge = Amulet_cc.Apis.per_word_charge

(* Cycles the kernel spends validating one app-supplied pointer range
   (two bound compares plus the range walk).  Charged at [with_range];
   statically certified call sites ({!Amulet_analysis.Gate_taint})
   skip both the walk and the charge. *)
let validate_charge = Amulet_cc.Apis.validate_charge

let xorshift16 s =
  let s = s lxor (s lsl 7) land 0xFFFF in
  let s = s lxor (s lsr 9) in
  s lxor (s lsl 8) land 0xFFFF

let dispatch t ?(certified = fun _ -> false) machine ~valid ~now_ms ~svc =
  let regs = M.regs machine in
  let arg n = R.get regs (12 + n) in
  let set_result v = R.set regs 12 (v land 0xFFFF) in
  let effects = ref [] in
  let effect e = effects := e :: !effects in
  let charge c =
    M.add_cycles machine c;
    t.charged_cycles <- t.charged_cycles + c
  in
  let name = match service_name svc with Some n -> n | None -> "api_unknown" in
  t.calls <- t.calls + 1;
  charge (base_charge name);
  (* Validated app-memory access.  [f] runs only when the whole range
     [addr, addr+len) lies inside the app's writable region.  When the
     static certifier proved every pointer reaching this service's
     call sites in-region, the walk (and its charge) is skipped. *)
  let with_range addr len f =
    if certified name then f ()
    else begin
      charge validate_charge;
      let inside (lo, hi) = addr >= lo && addr + len <= hi in
      if len >= 0 && List.exists inside valid then f ()
      else begin
        effect (Pointer_fault { service = name; addr; len });
        set_result 0xFFFF
      end
    end
  in
  (* writable span ending at the first range boundary above addr *)
  let span_above addr =
    List.fold_left
      (fun acc (lo, hi) -> if addr >= lo && addr < hi then hi - addr else acc)
      0 valid
  in
  let write_words addr values =
    List.iteri
      (fun i v -> M.mem_checked_write machine W.W16 (addr + (2 * i)) v)
      values;
    charge (per_word_charge * List.length values)
  in
  let read_string addr maxlen =
    let buf = Buffer.create 16 in
    let rec go i =
      if i < maxlen then begin
        let b = M.mem_checked_read machine W.W8 (addr + i) in
        if b <> 0 then begin
          Buffer.add_char buf (Char.chr b);
          go (i + 1)
        end
      end
    in
    go 0;
    Buffer.contents buf
  in
  (match name with
  | "api_null" -> set_result 0
  | "api_get_time" -> set_result (now_ms / 1000)
  | "api_get_battery" ->
    set_result (Sensors.battery_percent t.sensors ~time_ms:now_ms)
  | "api_read_accel" ->
    let buf = arg 0
    and n = Int.max 1 (Int.min 64 (W.to_signed W.W16 (arg 1))) in
    with_range buf (2 * n) (fun () ->
        let samples =
          List.init n (fun i ->
              let tm = now_ms - ((n - 1 - i) * 20) in
              Sensors.accel_magnitude t.sensors ~time_ms:(Int.max 0 tm)
              land 0xFFFF)
        in
        write_words buf samples;
        set_result n)
  | "api_read_accel_xyz" ->
    let buf = arg 0 in
    with_range buf 6 (fun () ->
        let x, y, z = Sensors.accel_sample t.sensors ~time_ms:now_ms in
        write_words buf [ x land 0xFFFF; y land 0xFFFF; z land 0xFFFF ];
        set_result 3)
  | "api_read_heart_rate" ->
    set_result (Sensors.heart_rate t.sensors ~time_ms:now_ms)
  | "api_read_ppg" ->
    let buf = arg 0
    and n = Int.max 1 (Int.min 64 (W.to_signed W.W16 (arg 1))) in
    with_range buf (2 * n) (fun () ->
        let samples =
          List.init n (fun i ->
              let tm = now_ms - ((n - 1 - i) * 10) in
              Sensors.ppg_sample t.sensors ~time_ms:(Int.max 0 tm)
              land 0xFFFF)
        in
        write_words buf samples;
        set_result n)
  | "api_read_temperature" ->
    set_result (Sensors.temperature t.sensors ~time_ms:now_ms)
  | "api_read_light" -> set_result (Sensors.light t.sensors ~time_ms:now_ms)
  | "api_display_write" ->
    let s = arg 0 and line = arg 1 land 3 in
    with_range s 1 (fun () ->
        let maxlen = Int.min 32 (span_above s) in
        t.display.(line) <- read_string s maxlen;
        charge (String.length t.display.(line));
        set_result 0)
  | "api_display_clear" ->
    Array.fill t.display 0 4 "";
    set_result 0
  | "api_button_state" ->
    set_result (Sensors.button_state t.sensors ~time_ms:now_ms)
  | "api_led" | "api_buzz" -> set_result 0
  | "api_log_append" ->
    let buf = arg 0
    and n = Int.max 0 (Int.min 128 (W.to_signed W.W16 (arg 1))) in
    with_range buf n (fun () ->
        for i = 0 to n - 1 do
          Buffer.add_char t.log
            (Char.chr (M.mem_checked_read machine W.W8 (buf + i)))
        done;
        charge (3 * n);
        set_result n)
  | "api_send_ble" ->
    let buf = arg 0
    and n = Int.max 0 (Int.min 128 (W.to_signed W.W16 (arg 1))) in
    with_range buf n (fun () ->
        for i = 0 to n - 1 do
          Buffer.add_char t.ble
            (Char.chr (M.mem_checked_read machine W.W8 (buf + i)))
        done;
        charge (4 * n);
        set_result n)
  | "api_set_timer" ->
    (* the period is an unsigned 16-bit millisecond count (1..65535) *)
    let period = Int.max 1 (arg 0) in
    let id = t.next_timer in
    t.next_timer <- t.next_timer + 1;
    effect (Set_timer { id; period_ms = period });
    set_result id
  | "api_cancel_timer" ->
    effect (Cancel_timer (arg 0));
    set_result 0
  | "api_subscribe" -> (
    match Event.sensor_of_int (arg 0) with
    | Some sensor ->
      let rate_hz = Int.max 1 (Int.min 100 (W.to_signed W.W16 (arg 1))) in
      effect (Subscribe { sensor; rate_hz });
      set_result 0
    | None -> set_result 0xFFFF)
  | "api_unsubscribe" -> (
    match Event.sensor_of_int (arg 0) with
    | Some sensor ->
      effect (Unsubscribe sensor);
      set_result 0
    | None -> set_result 0xFFFF)
  | "api_rand" ->
    t.rand_state <- xorshift16 t.rand_state;
    set_result t.rand_state
  | _ -> set_result 0xFFFF);
  List.rev !effects
