(** The AmuletOS system API — the one service table.

    Applications call these as ordinary C functions (up to three
    scalar/pointer arguments); the compiler routes each call through
    the AFT-generated gate [__gate_<name>], which writes the service's
    number, its index in {!table}, to the host-call port.  Each entry
    states the service's signature, charges and pointer contract once:
    the kernel ([Amulet_os.Api]) looks the entry up by number and
    clamps, validates and charges by it — the paper's "carefully
    handle application-provided pointers passed through API calls" —
    the gate certifier ([Amulet_analysis.Gate_taint]) proves call
    sites against the same extents, and the WCET certifier
    ([Amulet_analysis.Wcet]) bounds each call by the same charges. *)

type service =
  | Null | Get_time | Get_battery
  | Read_accel | Read_accel_xyz | Read_heart_rate | Read_ppg
  | Read_temperature | Read_light
  | Display_write | Display_clear | Button_state | Led | Buzz
  | Log_append | Send_ble
  | Set_timer | Cancel_timer | Subscribe | Unsubscribe
  | Rand
  | Unknown  (** any number outside {!table} *)

(** How many units one call transfers through its pointer. *)
type count =
  | Exactly of int
  | Length of { arg : int; lo : int; hi : int }
      (** argument [arg], read as a signed 16-bit value and clamped to
          [\[lo, hi\]] *)
  | Up_to_nul of int
      (** a NUL-terminated string of at most this many chars; only its
          first byte is validated, and the read also stops at the end
          of the valid range holding it *)

type pointer = {
  ptr_arg : int;  (** argument [i] is passed in register [12 + i] *)
  count : count;
  unit_bytes : int;  (** bytes validated per unit *)
  unit_charge : int;  (** cycles charged per unit transferred *)
}

type entry = {
  service : service;
  name : string;  (** C name, e.g. [api_read_accel] *)
  signature : Ctype.t;
  base_charge : int;  (** cycles charged to every dispatch *)
  pointer : pointer option;  (** the app pointer the kernel validates *)
}

val table : entry array
(** Indexed by service number. *)

val unknown : entry
(** What a number outside {!table} dispatches to: its base charge,
    then result [0xFFFF]. *)

val of_number : int -> entry
val of_name : string -> entry
(** Both give {!unknown} for a service not in {!table}. *)

val signatures : (string * Ctype.t) list
val gate_label : string -> string
(** [__gate_<name>], the AFT-generated gate of a service. *)

val service_of_gate_label : string -> string option
(** Inverse of {!gate_label}. *)

val gate_stack_bytes : int
(** App-stack bytes one gate call occupies before the gate switches to
    the OS stack — what the compiler's stack bound and the binary
    stack certifier both charge. *)

val is_api_call : string -> bool
(** Does a call to this name go through a gate (arguments in R12-R14,
    loaded left to right) rather than the stack convention? *)

val validate_charge : int
(** Cycles for validating one app-supplied pointer range; skipped for
    statically certified services. *)

val length_arg : pointer -> int option

val units : pointer -> int option -> int
(** Units a call transfers given its signed length argument; [None]
    (unknown) gives the clamp's maximum.  Monotone in the length. *)

val extent : pointer -> int option -> int
(** Bytes from the pointer the kernel validates, the length as for
    {!units}. *)

val worst_case_charge : certified:bool -> entry -> int
(** Base charge, plus {!validate_charge} for an uncertified pointer
    service, plus the maximum units times the unit charge: an upper
    bound on what one dispatch of the service can charge. *)
