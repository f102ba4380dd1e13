(** Binary encoding of instructions into MSP430 machine words.

    Produces the instruction word followed by any extension words
    (source first, then destination).  The constant generators are
    used automatically: immediates 0, 1, 2, 4, 8 and -1 (all-ones for
    the operation width) encode without an extension word, exactly as
    a real MSP430 assembler does.

    @raise Invalid_argument on operands that have no encoding (e.g.
    [R3] used as a plain register, or a jump offset outside
    [-512, 511]). *)

val encode : ?no_cg_imm:bool -> Opcode.t -> int list
(** Machine words for one instruction (1 to 3 words).  With
    [~no_cg_imm:true], immediates are always emitted as extension
    words even when a constant generator exists — the assembler uses
    this for immediates whose value is a link-time symbol, so that
    instruction sizes are known before symbol resolution. *)

val length_bytes : ?no_cg_imm:bool -> Opcode.t -> int
(** Encoded size in bytes without materializing the words. *)

