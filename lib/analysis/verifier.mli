(** Independent SFI verifier for linked application images.

    The compiler inserts bounds checks ({!Amulet_cc.Codegen}) and the
    range analysis ({!Amulet_cc.Range}) elides the provably redundant ones; both
    live inside the toolchain's trusted computing base.  This module
    shrinks that TCB: it checks the isolation invariant directly on an
    application's linked machine code, with no knowledge of how the
    image was produced.  It reads the code through the control-flow
    graph {!Cfi} reconstructed from the instruction stream, so every
    branch, call and return target is already proved to stay inside
    the app.  A firmware passes only if, on top of that, every memory
    access in app code is either

    - statically inside the app's own region (frame/stack-relative, or
      an absolute address inside the linker-resolved data section),
    - dominated by the mode-required guard sequence against the
      section-bound symbols (the [CMP]/[Jcc] pair the compiler emits,
      or a [__bounds_check] helper call in Feature-Limited mode), or
    - an access the platform explicitly sanctions (debug ports, the
      InfoMem shadow stack maintained with the trusted pattern),

    and every return address and [CALL Rn] target is proven inside the
    app code section.

    The analysis is a standard abstract interpretation over unsigned
    16-bit intervals, one fixpoint over the graph's blocks:
    conditional branches refine the register (or the return-address
    word at [0(SP)]) their [CMP] compared, until the next instruction
    that can change the flags, so the compiler's guard instructions —
    and nothing else — establish the facts that let a dynamic store
    through.  Elided guards verify because the address computation
    itself (masked index plus a linked global base) already confines
    the interval to the data section.

    Assumptions that remain in the TCB are listed in DESIGN.md: CFI
    reconstruction itself, control only entering app code at
    symbol-named function entries, and frame discipline for
    R4/SP-relative accesses. *)

type violation = {
  vaddr : int;  (** address of the offending instruction *)
  vtext : string;  (** disassembled instruction *)
  vreason : string;
}

type stats = {
  v_insns : int;  (** distinct instructions verified *)
  v_blocks : int;  (** CFG blocks reached from the entries *)
  v_stores : int;  (** dynamic stores proven in-region *)
  v_loads : int;  (** dynamic loads proven in-region *)
  v_branches : int;  (** indirect calls/branches proven in-section *)
  v_rets : int;  (** returns covered by a return-address guard *)
}

val verify : cfg:Cfi.t -> (stats, violation list) result
(** Verify the app code section [cfg] was reconstructed from against
    the mode it was certified for.  Under [No_isolation] every graph
    CFI certified is accepted. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_stats : Format.formatter -> stats -> unit

