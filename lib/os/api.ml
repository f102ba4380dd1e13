module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module W = Amulet_mcu.Word
module Apis = Amulet_cc.Apis

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

let xorshift16 s =
  let s = s lxor (s lsl 7) land 0xFFFF in
  let s = s lxor (s lsr 9) in
  s lxor (s lsl 8) land 0xFFFF

(* The helpers are top-level functions rather than closures over one
   call's state, so a gate call allocates nothing unless its service
   produces an effect or a string. *)

let charge t m c =
  M.add_cycles m c;
  t.charged_cycles <- t.charged_cycles + c

let arg m n = R.get (M.regs m) (12 + n)
let set_result m v = R.set (M.regs m) 12 (v land 0xFFFF)

let rec covers addr len = function
  | [] -> false
  | (lo, hi) :: rest -> (addr >= lo && addr + len <= hi) || covers addr len rest

(* writable span ending at the boundary of the range holding [addr] *)
let rec span_above addr = function
  | [] -> 0
  | (lo, hi) :: rest ->
    if addr >= lo && addr < hi then hi - addr else span_above addr rest

(* the NUL-terminated string at [addr], at most [maxlen] chars *)
let read_string m addr maxlen =
  let byte i = M.mem_checked_read m W.W8 (addr + i) in
  let rec len i = if i < maxlen && byte i <> 0 then len (i + 1) else i in
  String.init (len 0) (fun i -> Char.chr (byte i))

let write_word m buf i v = M.mem_checked_write m W.W16 (buf + (2 * i)) (v land 0xFFFF)

(* The sample [age] periods before [now_ms] of a windowed sensor. *)
let window_sample t (service : Apis.service) ~now_ms ~age =
  match service with
  | Apis.Read_accel ->
    Sensors.accel_magnitude t.sensors ~time_ms:(Int.max 0 (now_ms - (age * 20)))
  | _ -> Sensors.ppg_sample t.sensors ~time_ms:(Int.max 0 (now_ms - (age * 10)))

(* Moves the data of a pointer service whose range the kernel accepted
   — at most [n] units at [buf] — and returns the units moved. *)
let transfer t m (service : Apis.service) ~buf ~n ~valid ~now_ms =
  match service with
  | Apis.Read_accel | Apis.Read_ppg ->
    for i = 0 to n - 1 do
      write_word m buf i (window_sample t service ~now_ms ~age:(n - 1 - i))
    done;
    set_result m n;
    n
  | Apis.Read_accel_xyz ->
    let x, y, z = Sensors.accel_sample t.sensors ~time_ms:now_ms in
    write_word m buf 0 x;
    write_word m buf 1 y;
    write_word m buf 2 z;
    set_result m n;
    n
  | Apis.Display_write ->
    let s = read_string m buf (Int.min n (span_above buf valid)) in
    t.display.(arg m 1 land 3) <- s;
    set_result m 0;
    String.length s
  | Apis.Log_append | Apis.Send_ble ->
    let dst = if service = Apis.Log_append then t.log else t.ble in
    for i = 0 to n - 1 do
      Buffer.add_char dst (Char.chr (M.mem_checked_read m W.W8 (buf + i)))
    done;
    set_result m n;
    n
  | _ ->
    set_result m 0xFFFF;
    0

(* The result of a service without effects or an app pointer. *)
let value t (service : Apis.service) ~now_ms =
  match service with
  | Apis.Null | Apis.Led | Apis.Buzz -> 0
  | Apis.Get_time -> now_ms / 1000
  | Apis.Get_battery -> Sensors.battery_percent t.sensors ~time_ms:now_ms
  | Apis.Read_heart_rate -> Sensors.heart_rate t.sensors ~time_ms:now_ms
  | Apis.Read_temperature -> Sensors.temperature t.sensors ~time_ms:now_ms
  | Apis.Read_light -> Sensors.light t.sensors ~time_ms:now_ms
  | Apis.Button_state -> Sensors.button_state t.sensors ~time_ms:now_ms
  | Apis.Display_clear ->
    Array.fill t.display 0 4 "";
    0
  | Apis.Rand ->
    t.rand_state <- xorshift16 t.rand_state;
    t.rand_state
  | _ -> 0xFFFF

let scalar t m (service : Apis.service) ~now_ms =
  match service with
  | Apis.Set_timer ->
    (* the period is an unsigned 16-bit millisecond count (1..65535) *)
    let period_ms = Int.max 1 (arg m 0) in
    let id = t.next_timer in
    t.next_timer <- t.next_timer + 1;
    set_result m id;
    [ Set_timer { id; period_ms } ]
  | Apis.Cancel_timer ->
    let id = arg m 0 in
    set_result m 0;
    [ Cancel_timer id ]
  | Apis.Subscribe | Apis.Unsubscribe -> (
    match Event.sensor_of_int (arg m 0) with
    | None ->
      set_result m 0xFFFF;
      []
    | Some sensor ->
      set_result m 0;
      if service = Apis.Unsubscribe then [ Unsubscribe sensor ]
      else
        let rate_hz = Int.max 1 (Int.min 100 (W.to_signed W.W16 (arg m 1))) in
        [ Subscribe { sensor; rate_hz } ])
  | _ ->
    set_result m (value t service ~now_ms);
    []

let dispatch t m ~certified ~valid ~now_ms ~svc =
  let e = Apis.of_number svc in
  t.calls <- t.calls + 1;
  charge t m e.Apis.base_charge;
  match e.Apis.pointer with
  | None -> scalar t m e.Apis.service ~now_ms
  | Some p ->
    let buf = arg m p.Apis.ptr_arg in
    let length =
      match Apis.length_arg p with
      | Some a -> Some (W.to_signed W.W16 (arg m a))
      | None -> None
    in
    let len = Apis.extent p length in
    (* A service the static certifier proved in-region at every call
       site skips the range walk and its charge. *)
    let accepted =
      certified.(svc)
      || begin
        charge t m Apis.validate_charge;
        covers buf len valid
      end
    in
    if accepted then begin
      let moved =
        transfer t m e.Apis.service ~buf ~n:(Apis.units p length) ~valid ~now_ms
      in
      charge t m (p.Apis.unit_charge * moved);
      []
    end
    else begin
      set_result m 0xFFFF;
      [ Pointer_fault { service = e.Apis.name; addr = buf; len } ]
    end
