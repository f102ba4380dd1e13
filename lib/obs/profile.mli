(** Cycle-exact isolation-cost profiler.

    Classifies every executed PC against the firmware's linker symbol
    ranges, splitting cycles into the paper's cost categories: app
    code, compiler-inserted bounds guards, OS gate crossings, MPU
    reconfiguration, and kernel/startup.  Fed from the machine's
    per-instruction event hook, its totals are exact: the sum over
    all categories equals the CPU's own cycle counter, and adding the
    host-charged service cycles reproduces [Machine.cycles] to the
    cycle. *)

type category = App_code | Guard | Os_gate | Mpu_config | Kernel

val categories : category list
val category_name : category -> string

val category_slug : category -> string
(** Stable machine-readable name ([app_code], [guard], [os_gate],
    [mpu_config], [kernel]) used in counter names and JSON schemas. *)

val counter_name : category -> string
(** [profile.<slug>.cycles] — the counter {!Obs.emit_profile_counters}
    publishes the category's cumulative cycle total under. *)

type t

val create : Amulet_aft.Aft.firmware -> t
(** Build the PC-classification table from the firmware's layout and
    marker symbols ([..$gs]/[..$ge] guard brackets, [__mpu$..] MPU
    write brackets, [__rt$b]/[__bc$b] runtime-helper ranges). *)

val step : t -> pc:int -> cycles:int -> unit
(** Attribute one executed instruction. *)

val set_context : t -> app:string -> handler:string -> unit
(** Attribute subsequent cycles to an app/handler (kernel dispatch
    scope); cleared with {!clear_context}. *)

val clear_context : t -> unit

val totals : t -> (category * int) list
(** Cumulative attributed cycles per category so far. *)

type app_report = {
  ar_app : string;
  ar_cats : (category * int) list;
  ar_handlers : (string * int) list;  (** cycles per handler *)
}

type report = {
  r_cats : (category * int) list;  (** global breakdown *)
  r_insns : int;
  r_exec_cycles : int;  (** sum of attributed instruction cycles *)
  r_host_cycles : int;  (** host-charged API service cycles *)
  r_total : int;  (** exec + host *)
  r_machine : int;  (** [Machine.cycles] — must equal [r_total] *)
  r_apps : app_report list;
}

val report : t -> machine:Amulet_mcu.Machine.t -> report
val pp_report : Format.formatter -> report -> unit
