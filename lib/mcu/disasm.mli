(** Disassembler: decode memory ranges back into readable listings,
    with optional symbol annotation. *)

type line = {
  addr : int;
  words : int list;  (** raw machine words of the instruction *)
  text : string;  (** mnemonic rendering, or [.word] for data *)
}

val range :
  ?symbols:(string * int) list ->
  fetch:(int -> int) ->
  lo:int ->
  hi:int ->
  unit ->
  line list
(** Linear sweep over [lo, hi).  Undecodable words render as [.word
    0x....] and decoding resumes at the next word.  When [symbols] is
    given, lines at symbol addresses are prefixed with the label and
    jump/call targets are annotated. *)

val pp_line : Format.formatter -> line -> unit
