(** Instruction timing.

    Cycle costs follow the classic MSP430 CPU tables (format I cost is
    a function of source and destination addressing modes; constant
    generators cost the same as register sources).  Emulated
    instructions (RET, POP, BR, ...) are assembled as real format I/II
    instructions, so their costs fall out of these tables. *)

val cycles : Opcode.t -> int
(** Execution cycles for one instruction. *)
