(** Reference results from the paper, for side-by-side reporting.

    Table 1: average cycle count for basic memory isolation operations
    on the MSP430FR5969.  Figure 2: < 0.5 % battery impact for every
    app and method.  Figure 3: percentage slowdowns up to ~50 %. *)

type op = Memory_access | Context_switch

val table1 : Amulet_cc.Isolation.mode -> op -> int
(** The paper's Table 1 entry. *)

val figure2_battery_bound_percent : float
(** "For all applications, isolation using either the MPU or Software
    Only methods has less than a 0.5% impact on battery lifetime." *)

val expected_order_memory_access : Amulet_cc.Isolation.mode list
(** Cheapest first: NoIsolation < MPU < SoftwareOnly < FeatureLimited. *)

val expected_order_context_switch : Amulet_cc.Isolation.mode list
(** Cheapest first: NoIsolation = FeatureLimited < SoftwareOnly < MPU. *)
