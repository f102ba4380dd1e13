open Ctype

(* The service table: each OS API service declared once, read by the
   gates, the kernel and the certifiers alike (see apis.mli). *)

type service =
  | Null | Get_time | Get_battery
  | Read_accel | Read_accel_xyz | Read_heart_rate | Read_ppg
  | Read_temperature | Read_light
  | Display_write | Display_clear | Button_state | Led | Buzz
  | Log_append | Send_ble
  | Set_timer | Cancel_timer | Subscribe | Unsubscribe
  | Rand
  | Unknown

type count =
  | Exactly of int
  | Length of { arg : int; lo : int; hi : int }
  | Up_to_nul of int

type pointer = {
  ptr_arg : int;
  count : count;
  unit_bytes : int;
  unit_charge : int;
}

type entry = {
  service : service;
  name : string;
  signature : Ctype.t;
  base_charge : int;
  pointer : pointer option;
}

(* two bound compares plus the range walk *)
let validate_charge = 8

(* An app buffer of 16-bit sensor samples, at most 64 of them, 2 cycles
   per word copied. *)
let samples =
  { ptr_arg = 0; count = Length { arg = 1; lo = 1; hi = 64 }; unit_bytes = 2;
    unit_charge = 2 }

(* An app buffer of at most 128 bytes, [cycles] per byte transferred. *)
let bytes ~cycles =
  { ptr_arg = 0; count = Length { arg = 1; lo = 0; hi = 128 }; unit_bytes = 1;
    unit_charge = cycles }

let svc service name ret args base_charge =
  { service; name; signature = Func (ret, args); base_charge; pointer = None }

let via pointer e = { e with pointer = Some pointer }

(* Base charges are modeled service costs in cycles (datasheet-plausible
   orders of magnitude: sensor FIFO reads, FRAM writes, SPI display
   traffic).  The context-switch cost itself is executed gate code, not
   charged here, so api_null measures the pure switch. *)
let table =
  [|
    (* benchmarking no-op: measures pure context-switch cost *)
    svc Null "api_null" Void [] 0;
    (* time and power *)
    svc Get_time "api_get_time" Uint [] 6;
    svc Get_battery "api_get_battery" Int [] 10;
    (* sensors *)
    svc Read_accel "api_read_accel" Int [ Ptr Int; Int ] 16 |> via samples;
    svc Read_accel_xyz "api_read_accel_xyz" Int [ Ptr Int ] 22
    |> via { samples with count = Exactly 3 };
    svc Read_heart_rate "api_read_heart_rate" Int [] 18;
    svc Read_ppg "api_read_ppg" Int [ Ptr Int; Int ] 16 |> via samples;
    svc Read_temperature "api_read_temperature" Int [] 14;
    svc Read_light "api_read_light" Int [] 12;
    (* display and UI *)
    svc Display_write "api_display_write" Void [ Ptr Char; Int ] 52
    |> via { (bytes ~cycles:1) with count = Up_to_nul 32 };
    svc Display_clear "api_display_clear" Void [] 40;
    svc Button_state "api_button_state" Int [] 6;
    svc Led "api_led" Void [ Int ] 4;
    svc Buzz "api_buzz" Void [ Int ] 8;
    (* storage and radio *)
    svc Log_append "api_log_append" Int [ Ptr Char; Int ] 42 |> via (bytes ~cycles:3);
    svc Send_ble "api_send_ble" Int [ Ptr Char; Int ] 72 |> via (bytes ~cycles:4);
    (* timers and subscriptions *)
    svc Set_timer "api_set_timer" Int [ Int ] 20;
    svc Cancel_timer "api_cancel_timer" Void [ Int ] 12;
    svc Subscribe "api_subscribe" Int [ Int; Int ] 24;
    svc Unsubscribe "api_unsubscribe" Void [ Int ] 16;
    (* misc *)
    svc Rand "api_rand" Uint [] 8;
  |]

(* What a binary payload reaches by writing an out-of-table number to
   the host-call port. *)
let unknown = svc Unknown "api_unknown" Int [] 10

let of_number n = if n >= 0 && n < Array.length table then table.(n) else unknown

let of_name name =
  Option.value ~default:unknown
    (Array.find_opt (fun e -> e.name = name) table)

let signatures =
  Array.to_list (Array.map (fun e -> (e.name, e.signature)) table)

let gate_prefix = "__gate_"
let gate_label name = gate_prefix ^ name

let service_of_gate_label label =
  let n = String.length gate_prefix in
  if String.starts_with ~prefix:gate_prefix label then
    Some (String.sub label n (String.length label - n))
  else None

(* the eight callee-saved registers R4-R11 plus the return address *)
let gate_stack_bytes = 18
let is_api_call name = String.starts_with ~prefix:"api_" name

(* ------------------------------------------------------------------ *)
(* Pointer contracts *)

let length_arg p = match p.count with Length { arg; _ } -> Some arg | _ -> None

let units p length =
  match (p.count, length) with
  | Exactly n, _ | Up_to_nul n, _ -> n
  | Length { lo; hi; _ }, Some l -> Int.max lo (Int.min hi l)
  | Length { hi; _ }, None -> hi

let extent p length =
  match p.count with Up_to_nul _ -> 1 | _ -> units p length * p.unit_bytes

let worst_case_charge ~certified e =
  match e.pointer with
  | None -> e.base_charge
  | Some p ->
    e.base_charge
    + (if certified then 0 else validate_charge)
    + (units p None * p.unit_charge)
