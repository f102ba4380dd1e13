(** Fetch-decode-execute engine.

    The CPU owns the register file and an instruction/cycle budget; it
    talks to the rest of the machine through a {!bus}, which is where
    MPU checks, MMIO dispatch and tracing are implemented (see
    {!Machine}).  Bus functions may raise; the exception aborts the
    current instruction and propagates out of {!step}. *)

(** Why the CPU is touching memory. *)
type access = Afetch | Aread

type bus = {
  read : access -> Word.width -> int -> int;
  write : Word.width -> int -> int -> unit;
}

type t = {
  regs : Registers.t;
  bus : bus;
  mutable cycles : int;  (** total cycles executed *)
  mutable insns : int;  (** total instructions retired *)
}

val step : t -> Opcode.t
(** Execute one instruction; returns it (for tracing).  Raises
    whatever the bus raises on a faulting access, and
    {!Decode.Illegal} on an undecodable word. *)

val compile : pc:int -> len:int -> Opcode.t -> t -> unit
(** [compile ~pc ~len instr] is [instr], decoded at [pc] with encoded
    size [len] bytes, compiled into a closure that executes it on a
    CPU: operation, width, operand modes, immediates, extension-word
    addresses and the jump target are resolved once, here.  Running
    the closure advances PC past the instruction and performs it
    through the bus exactly as {!step} would after fetch and decode —
    same accesses, same order, same faults — but charges no cycles
    and retires nothing; the caller does.  It allocates nothing.

    {!step} stays the reference these closures are checked against:
    the two share the {!Alu} but no operand or executor code, and the
    differential tests (block engine against the stepper, on every
    encodable instruction form and on compiled programs) guard their
    agreement. *)
