(** Value-range analysis over the typed AST.

    {!Driver.compile} runs it exactly once per compile, between type
    checking and code generation.  One pass yields two facts:

    - a classifier for every computed-address dereference site:
      [Proven_safe] when the final access address is provably inside
      the accessed object for {e every} execution, by a derivation the
      binary verifier (lib/analysis/verifier.ml) can independently
      replay from the instruction stream, and [Needs_check] for
      everything else.  An access that is out of bounds on every
      execution that reaches it is a compile error, raised by the pass
      itself;
    - a loop bound for every plain counted loop, for the binary WCET
      pass.

    Two abstract interpretations run over each function body:

    - a flow-sensitive pass tracking integer ranges and pointer
      provenance of scalar locals (used to prove sites {e unsafe} and
      to bound loops);
    - a flow-insensitive "robust" evaluator that only accepts
      derivations visible in the generated code itself — global
      object bases, constants, [&]-masks, byte loads, power-of-two
      scaling — (used to prove sites {e safe}).

    The asymmetry is deliberate: an elided guard is only sound if the
    independent verifier, which sees registers rather than variables,
    can re-establish the bound.  See DESIGN.md. *)

type t = {
  classify : Codegen.classifier;
      (** site class keyed by the access's source location; unknown
          locations map to [Needs_check].  Codegen elides the run-time
          guard at [Proven_safe] sites when the compile asks for
          elision. *)
  loop_bound : Srcloc.t -> int option;
      (** keyed by a loop condition's source location, the maximum
          number of {e body executions} the loop can perform per entry
          — defined only for plain counted loops (tracked scalar
          against a constant, a single unconditional constant-step
          update, no [continue], no possible 16-bit wraparound before
          the exit test).  Codegen attaches these to the loop's header
          label and the AFT stamps them into the image as
          [wcet.loop.<label>] notes for the binary WCET pass
          ([Amulet_analysis.Wcet]). *)
}

val run : Tast.program -> t
(** @raise Srcloc.Error for a proven-out-of-bounds access. *)
