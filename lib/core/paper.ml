module Iso = Amulet_cc.Isolation

type op = Memory_access | Context_switch

let table1 mode op =
  match (op, mode) with
  | Memory_access, Iso.No_isolation -> 23
  | Memory_access, Iso.Feature_limited -> 41
  | Memory_access, Iso.Mpu_assisted -> 29
  | Memory_access, Iso.Software_only -> 32
  | Context_switch, Iso.No_isolation -> 90
  | Context_switch, Iso.Feature_limited -> 90
  | Context_switch, Iso.Mpu_assisted -> 142
  | Context_switch, Iso.Software_only -> 98

let figure2_battery_bound_percent = 0.5

let expected_order_memory_access =
  [ Iso.No_isolation; Iso.Mpu_assisted; Iso.Software_only; Iso.Feature_limited ]

let expected_order_context_switch =
  [ Iso.No_isolation; Iso.Feature_limited; Iso.Software_only; Iso.Mpu_assisted ]
