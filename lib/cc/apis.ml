open Ctype

let fn ret args = Func (ret, args)

let signatures =
  [
    (* benchmarking no-op: measures pure context-switch cost *)
    ("api_null", fn Void []);
    (* time and power *)
    ("api_get_time", fn Uint []);
    ("api_get_battery", fn Int []);
    (* sensors *)
    ("api_read_accel", fn Int [ Ptr Int; Int ]);
    ("api_read_accel_xyz", fn Int [ Ptr Int ]);
    ("api_read_heart_rate", fn Int []);
    ("api_read_ppg", fn Int [ Ptr Int; Int ]);
    ("api_read_temperature", fn Int []);
    ("api_read_light", fn Int []);
    (* display and UI *)
    ("api_display_write", fn Void [ Ptr Char; Int ]);
    ("api_display_clear", fn Void []);
    ("api_button_state", fn Int []);
    ("api_led", fn Void [ Int ]);
    ("api_buzz", fn Void [ Int ]);
    (* storage and radio *)
    ("api_log_append", fn Int [ Ptr Char; Int ]);
    ("api_send_ble", fn Int [ Ptr Char; Int ]);
    (* timers and subscriptions *)
    ("api_set_timer", fn Int [ Int ]);
    ("api_cancel_timer", fn Void [ Int ]);
    ("api_subscribe", fn Int [ Int; Int ]);
    ("api_unsubscribe", fn Void [ Int ]);
    (* misc *)
    ("api_rand", fn Uint []);
  ]

let names = List.map fst signatures
let exists name = List.mem_assoc name signatures
let gate_label name = "__gate_" ^ name

(* ------------------------------------------------------------------ *)
(* Service cost model.

   The kernel charges every dispatched service a fixed base cost plus
   a data-dependent cost (per word copied, per byte logged, ...).
   The table lives here — in the leaf library both the OS model and
   the static analyses can see — so the dynamic charges in
   [Amulet_os.Api] and the static worst-case bounds in
   [Amulet_analysis.Wcet] are two views of the same constants and
   cannot drift apart. *)

(* Modeled service costs in cycles (datasheet-plausible orders of
   magnitude: sensor FIFO reads, FRAM writes, SPI display traffic).
   The context-switch cost itself is executed gate code, not charged
   here, so api_null measures the pure switch. *)
let base_charge = function
  | "api_null" -> 0
  | "api_get_time" -> 6
  | "api_get_battery" -> 10
  | "api_read_accel" -> 16
  | "api_read_accel_xyz" -> 22
  | "api_read_heart_rate" -> 18
  | "api_read_ppg" -> 16
  | "api_read_temperature" -> 14
  | "api_read_light" -> 12
  | "api_display_write" -> 52
  | "api_display_clear" -> 40
  | "api_button_state" -> 6
  | "api_led" -> 4
  | "api_buzz" -> 8
  | "api_log_append" -> 42
  | "api_send_ble" -> 72
  | "api_set_timer" -> 20
  | "api_cancel_timer" -> 12
  | "api_subscribe" -> 24
  | "api_unsubscribe" -> 16
  | "api_rand" -> 8
  | _ -> 10

let per_word_charge = 2

(* Cycles the kernel spends validating one app-supplied pointer range
   (two bound compares plus the range walk).  Charged once per call
   for the services that take an app pointer; statically certified
   call sites ({!Amulet_analysis.Gate_taint}) skip both the walk and
   the charge. *)
let validate_charge = 8

let range_services =
  [
    "api_read_accel"; "api_read_accel_xyz"; "api_read_ppg";
    "api_display_write"; "api_log_append"; "api_send_ble";
  ]

(* Worst case of the data-dependent part: the kernel clamps every
   app-supplied length, so each service's variable charge has a hard
   maximum regardless of the arguments.  Mirrors the clamp constants
   in [Amulet_os.Api.dispatch]. *)
let max_variable_charge = function
  | "api_read_accel" | "api_read_ppg" -> 64 * per_word_charge (* n <= 64 words *)
  | "api_read_accel_xyz" -> 3 * per_word_charge
  | "api_display_write" -> 32 (* 1 cycle/char, <= 32 chars *)
  | "api_log_append" -> 3 * 128 (* 3 cycles/byte, n <= 128 *)
  | "api_send_ble" -> 4 * 128 (* 4 cycles/byte, n <= 128 *)
  | _ -> 0

let worst_case_charge ~certified name =
  base_charge name
  + (if (not certified) && List.mem name range_services then validate_charge
     else 0)
  + max_variable_charge name
