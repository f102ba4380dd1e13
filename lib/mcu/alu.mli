(** Arithmetic/logic core with MSP430 flag semantics.

    Every operation returns one packed [int], so executing an
    instruction allocates nothing: the result value (normalised to the operation width) in bits 0..15,
    the new C/Z/N/V at their status-register bit positions shifted up
    by {!flags_shift}, and {!has_flags} set when the operation updates
    the flags at all.  Inputs are normalised to the width first, so
    raw register contents may be passed. *)

val flags_shift : int
val status_mask : int
(** The C, Z, N and V bits of the status register. *)

val has_flags : int

val value : int -> int
(** Result value of a packed result. *)

val carry : int -> bool
val overflow : int -> bool
(** The new C and V flags of a packed result (meaningful when
    {!has_flags} is set). *)

val apply_flags : int -> int -> int
(** [apply_flags sr r] is the status register [sr] with C/Z/N/V
    replaced by those of [r], or [sr] itself if [r] sets no flags. *)

val fmt1 : Opcode.op2 -> Word.width -> int -> int -> int -> int
(** [fmt1 op w] is [op] specialised to width [w]: applied to the
    carry flag (0 or 1), the source and the destination value, it
    returns the packed result.  MOV, BIC and BIS set no flags.
    [fmt1 op w] returns a statically allocated function, so selecting
    it allocates nothing.  The result must still be written back by
    the caller unless {!Opcode.writes_back} is false. *)

val fmt2 : Opcode.op1 -> Word.width -> int -> int -> int
(** [fmt2 op w] is the single-operand ALU operation (RRC, RRA, SWPB,
    SXT) for width [w], applied to the carry flag and the operand.
    SWPB and SXT are word-only and ignore [w]; SWPB sets no flags.
    Raises [Invalid_argument] for PUSH and CALL. *)
