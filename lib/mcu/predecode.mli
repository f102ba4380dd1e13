(** Predecoded micro-ops and basic blocks for the fast interpreter.

    Tier 2 of the two-tier engine (see {!Machine.run}): each
    instruction is decoded once and compiled by {!Cpu.compile} into a
    {!uop}, a closure specialised to its operation and operand modes,
    with fetch-word count and cycle cost precomputed; {!build} chains
    uops from an entry pc up to the next control transfer into a
    {!block}.

    The builder reads raw memory words only — no MPU checks, no
    statistics, no bus traffic — so building a block is free of
    observable effects.  A block carries no MPU state: execute
    permission is decided at run time by the machine (one
    {!Mpu.exec_span_ok} check over the block's span, per-word checks
    only where it is refused), preserving the per-instruction path's
    fault ordering exactly. *)

type uop = {
  u_pc : int;  (** address of the first instruction word *)
  u_len : int;  (** encoded size in bytes (2, 4 or 6) *)
  u_words : int;  (** [u_len / 2]: fetch words the slow path counts *)
  u_cost : int;  (** {!Cycles.cycles}, precomputed *)
  u_exec : Cpu.t -> unit;
      (** {!Cpu.compile}d: advances PC and performs the instruction;
          charges no cycles *)
}

type block = {
  b_uops : uop array;
      (** capped in length, and ending at the first instruction that
          may rewrite PC *)
  b_lo : int;
  b_hi : int;
      (** decoded byte span [\[b_lo, b_hi)]; a write overlapping it
          invalidates the block.  Empty blocks still span their first
          word so a write can flush a cached "unhandled" verdict. *)
}

val build : read_word:(int -> int) -> pc:int -> block
(** [build ~read_word ~pc] decodes a basic block starting at [pc] from
    raw memory words, entered at [b_lo = pc].  Never raises:
    undecodable or unfetchable bytes end the block (possibly with zero
    uops, which the machine single-steps). *)
