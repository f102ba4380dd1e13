(** The abstract transition system extracted from [lib/mcu].

    State is collapsed to what the isolation argument turns on —
    privilege side of the gate, MPU enable, programmed window, and a
    terminal containment-failure marker.  Memory is region-abstracted
    into canonical intervals positioned so every guard comparison and
    MPU boundary falls between intervals; one abstract step therefore
    covers every concrete address an interval denotes (validated
    differentially by {!Lemmas}).  Gate entry/exit are the only
    privilege and window transitions, mirroring the AFT stubs. *)

type region =
  | R_own_data
  | R_own_slack  (** 1 KiB-granule slack between globals and data_limit *)
  | R_own_code
  | R_os  (** OS code/data and any lower app *)
  | R_victim  (** the next app above the attacker *)
  | R_fram_high
  | R_vectors  (** interrupt vectors — never MPU-covered *)
  | R_sram
  | R_info
  | R_mpu_regs
  | R_periph

val all_regions : region list
val region_name : region -> string

type geom = {
  g_os : Interval.t;
  g_own_code : Interval.t;
  g_own_data : Interval.t;
  g_own_slack : Interval.t;
  g_victim : Interval.t;
  g_fram_high : Interval.t;
  g_vectors : Interval.t;
  g_sram : Interval.t;
  g_info : Interval.t;
  g_mpu_regs : Interval.t;
  g_periph : Interval.t;
}

val default : geom
(** Canonical single-attacker layout on 1 KiB granules, derived from
    {!Amulet_mcu.Memory_map} and {!Amulet_mcu.Mpu} constants. *)

val interval_of : geom -> region -> Interval.t
val rep : geom -> region -> int
(** Representative concrete address, for counterexample replay. *)

val data_lo : geom -> int
val data_hi : geom -> int
val window : geom -> Interval.t

type priv = P_app | P_os
type window_cfg = W_app | W_os | W_wide

type kind = K_write | K_read | K_exec | K_mpu
type breach = { br_region : region; br_kind : kind }
type stuck = S_guard | S_mpu | S_badpw | S_gate | S_kernel
type dead = D_breach of breach | D_stuck of stuck

type state = {
  priv : priv;
  mpu_en : bool;
  win : window_cfg;
  dead : dead option;  (** terminal: breach or contained-stuck *)
}

val kind_name : kind -> string
val stuck_name : stuck -> string
val pp_dead : Format.formatter -> dead -> unit
val pp_state : Format.formatter -> state -> unit
val state_equal : state -> state -> bool

val init : mode:Amulet_cc.Isolation.mode -> state
val universe : state list
(** Finite superset of every reachable state (600 states). *)

type mpu_effect = M_disable | M_widen | M_badpw

type action =
  | A_compute
  | A_store of region
  | A_load of region
  | A_jump of region
  | A_guarded_store of region
  | A_guarded_load of region
  | A_guarded_call of region
  | A_push_bounded
  | A_push_wild
  | A_mpu_store of mpu_effect
  | A_gate_enter
  | A_gate_exit
  | A_gate_ptr of region

val pp_action : Format.formatter -> action -> unit
val action_to_string : action -> string

type attacker = Benign | Compiled of { stack_bounded : bool } | Binary

val attacker_name : attacker -> string

val repertoire :
  mode:Amulet_cc.Isolation.mode -> attacker:attacker -> action list
(** The actions the attacker model can reach under the mode's
    toolchain: Feature-Limited compiled code has no pointers or
    recursion; other compiled code derefs only behind the mode's
    guards; binary code is unrestricted. *)

val step :
  mode:Amulet_cc.Isolation.mode ->
  ?geom:geom ->
  state ->
  action ->
  state option
(** One abstract step.  [None] when the action is disabled in this
    state (wrong privilege side).  Dead states absorb. *)

type containment =
  | C_build
  | C_guard
  | C_mpu
  | C_gate
  | C_kernel
  | C_breach of breach
  | C_harmless

val run_scenario :
  mode:Amulet_cc.Isolation.mode ->
  attacker:attacker ->
  action list ->
  containment * (state * action) list
(** Run a deterministic attack program from {!init}, classifying which
    layer contains it (or that it breaches / is harmless), with the
    executed trace.  Actions outside the attacker's {!repertoire}
    classify as [C_build]. *)
