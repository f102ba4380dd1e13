(** The paper's evaluation, reproduced end-to-end on the simulated
    platform.  Each function regenerates one table or figure; the
    bench harness prints them next to the paper's numbers. *)

module Iso := Amulet_cc.Isolation

(** {1 Table 1 — basic isolation operation costs} *)

type table1_row = {
  t1_mode : Iso.mode;
  t1_mem_access : float;  (** avg cycles per guarded memory access *)
  t1_ctx_switch : float;  (** avg cycles per context switch (one way) *)
}

val table1 : ?runs:int -> ?elide:bool -> unit -> table1_row list
(** Runs the synthetic app [runs] times (default 200, as in the paper)
    per operation per mode.  Per-operation cost is the difference
    against an empty handler of the same shape, divided by the number
    of operations.  [elide] defaults to [false] here: the paper's
    compiler has no check elision, and the synthetic accesses are
    exactly the kind the range analysis removes. *)

(** {1 Figure 2 — weekly overhead and battery impact for nine apps} *)

type figure2_row = {
  f2_app : string;  (** display name, as in the paper *)
  f2_mode : Iso.mode;
  f2_overhead_cycles : float;  (** per week *)
  f2_battery_percent : float;
}

val figure2 :
  ?scenario:Amulet_os.Sensors.scenario ->
  ?warmup_ms:int ->
  unit ->
  figure2_row list
(** Profiles each of the nine platform apps under Feature-Limited,
    MPU and Software-Only, against the No-Isolation baseline. *)

(** {1 Figure 3 — benchmark slowdown} *)

type figure3_row = {
  f3_case : string;
  f3_mode : Iso.mode;
  f3_cycles : float;  (** avg cycles per run *)
  f3_slowdown_percent : float;  (** vs. the no-isolation baseline *)
}

val figure3 : ?runs:int -> unit -> figure3_row list
(** Activity Case 1, Activity Case 2 and Quicksort, each run [runs]
    times (default 200) per isolation method. *)

(** {1 Shared measurement helper} *)

val measure_handler :
  ?shadow:bool ->
  ?elide:bool ->
  ?certify:bool ->
  mode:Iso.mode ->
  app:Amulet_apps.Suite.app ->
  arg:int ->
  runs:int ->
  unit ->
  Amulet_aft.Aft.firmware * float
(** The firmware built for the measurement, and the average cycles per
    dispatch of the app's [handle_button] with the given argument;
    [shadow] arms the InfoMem shadow stack, [elide]
    (default true) lets the range analysis drop proven guards,
    [certify] (default true) lets the static certifier elide dynamic
    gate-pointer validation. *)

(** {1 Ablations beyond the paper} *)

type shadow_row = {
  sh_mode : Iso.mode;
  sh_plain : float;
  sh_hardened : float;
  sh_per_call : float;
}

val ablation_shadow : ?runs:int -> unit -> shadow_row list
(** Cost of the shadow return-address stack (paper section 5's
    proposed hardening) per function call, under every mode. *)

type advanced_mpu_row = {
  am_mem_access : float;
  am_ctx_switch : float;
  am_mem_saving_percent : float;
}

val ablation_advanced_mpu : ?runs:int -> unit -> advanced_mpu_row
(** Projection for the paper's envisioned "advanced MPU" that covers
    all memory with 4+ regions: per-access cost falls to the
    no-isolation figure, context switches keep the MPU price. *)

type elision_row = {
  el_mode : Iso.mode;
  el_full : float;  (** cycles per run with every guard emitted *)
  el_elided : float;  (** cycles per run with proven guards dropped *)
  el_sites : int;  (** dereference sites whose guard was elided *)
  el_saving_percent : float;
}

val ablation_elision : ?runs:int -> unit -> elision_row list
(** Cost recovered by range-analysis bounds-check elision on the
    synthetic memory benchmark, for the guard-inserting modes
    (Software-Only and MPU). *)

type gate_cert_row = {
  gc_mode : Iso.mode;
  gc_dynamic : float;  (** cycles per run, every gate pointer validated *)
  gc_certified : float;  (** cycles per run, certified services elided *)
  gc_per_gate : float;  (** marginal cycles per pointer-carrying call *)
  gc_services : string list;  (** services certified for the app *)
}

val ablation_gate_cert : ?runs:int -> unit -> gate_cert_row list
(** Cost recovered by gate-argument provenance certification
    ({!Amulet_analysis.Gate_taint}) on the gate-dense benchmark: the
    kernel skips its dynamic pointer-range validation for certified
    services. *)
