(** The MSP430 register file and status-register flags.

    R0 = program counter, R1 = stack pointer, R2 = status register /
    constant generator 1, R3 = constant generator 2, R4..R15 general
    purpose. *)

type t = int array
(** Indexed by register number; every entry stays within 16 bits.
    Exposed so compiled micro-ops ({!Cpu.compile}) read and write it
    without a call per access; all other code should go through the
    accessors below, which keep entries normalised. *)

val pc : int
val sp : int
val sr : int

val create : unit -> t
val get : t -> int -> int
val set : t -> int -> int -> unit

val get_pc : t -> int
val set_pc : t -> int -> unit
val get_sp : t -> int
val set_sp : t -> int -> unit

(** Status-register flag accessors (bit positions follow the MSP430:
    C=0, Z=1, N=2, V=8). *)

val carry : t -> bool
val zero : t -> bool
val negative : t -> bool
val overflow : t -> bool

val set_carry : t -> bool -> unit
val set_zero : t -> bool -> unit
val set_negative : t -> bool -> unit
val set_overflow : t -> bool -> unit

val copy : t -> t
val pp : Format.formatter -> t -> unit
