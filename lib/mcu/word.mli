(** 16-bit and 8-bit machine arithmetic for the MSP430-like core.

    Values are plain OCaml [int]s constrained to the range of the
    operation width; every operation re-normalizes its result.  The
    module also computes the MSP430 status flags (carry, zero,
    negative, signed overflow) for arithmetic results. *)

type width = W8 | W16

val bits : width -> int
(** [bits w] is 8 or 16. *)

val mask : width -> int
(** [mask w] is [0xFF] or [0xFFFF]. *)

val sign_bit : width -> int
(** Most-significant-bit mask for the width. *)

val norm : width -> int -> int
(** Truncate to the width (two's-complement wrap-around). *)

val is_negative : width -> int -> bool
(** True if the sign bit of the normalized value is set. *)

val to_signed : width -> int -> int
(** Interpret the value as a signed two's-complement integer. *)

val of_signed : width -> int -> int
(** Inverse of {!to_signed}: wrap a signed integer into the width. *)

(** Result of an arithmetic operation together with flag outcomes. *)
type flags = { value : int; carry : bool; overflow : bool }

val add : width -> ?carry_in:bool -> int -> int -> flags
(** [add w a b] computes [a + b (+1 if carry_in)] with carry-out and
    signed-overflow detection. *)

val sub : width -> ?borrow_in:bool -> int -> int -> flags
(** [sub w dst src] computes [dst - src] the MSP430 way
    ([dst + lnot src + 1]); [carry] is the NOT-borrow convention.
    [borrow_in] subtracts one more (for SUBC with carry clear). *)

val dadd : width -> ?carry_in:bool -> int -> int -> flags
(** Decimal (BCD) addition, digit by digit, as the DADD instruction. *)

val swap_bytes : int -> int
(** Exchange high and low byte of a 16-bit value. *)

val sign_extend_byte : int -> int
(** Sign-extend bits 7..0 into a 16-bit value (SXT). *)

