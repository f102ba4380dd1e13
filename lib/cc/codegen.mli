(** Code generator: typed AST to MSP430-like assembly, inserting the
    memory-isolation checks demanded by the selected mode.

    Check placement follows the paper exactly:

    - every dereference of a {e computed} address (pointer deref,
      dynamically-indexed array, [->], function-pointer call) is
      guarded; named variables, struct fields of named variables and
      constant-index array accesses are verified statically and get no
      run-time check;
    - [Software_only]: lower and upper bound compare-against-constant;
    - [Mpu_assisted]: lower bound only (the MPU catches the rest);
    - [Feature_limited]: array-index check via the [__bounds_check]
      runtime helper (the original Amulet scheme);
    - [Software_only] and [Mpu_assisted] also bounds-check the return
      address before every RET.

    The bound "constants" are the linker's section start/end symbols,
    resolved in AFT phase 4. *)

(** Verdict of the range analysis ({!Range}) for one dereference
    site, identified by the source location of the access expression.
    A compile without elision classifies every site [Needs_check]. *)
type site_class =
  | Proven_safe  (** always in bounds: the run-time guard is elided *)
  | Needs_check  (** nothing proven: emit the mode's run-time guard *)

type classifier = Srcloc.t -> site_class

(** Per-function dereference-site accounting. *)
type site_stats = { checked : int; elided : int }

(** Per-function facts for the call-graph, stack-depth analysis and
    the resource profiler. *)
type fn_info = {
  fi_name : string;  (** unmangled *)
  fi_frame_bytes : int;  (** locals area *)
  fi_saved_regs : int;  (** callee-saved registers pushed *)
  fi_calls : string list;  (** direct in-unit callees *)
  fi_api_calls : string list;  (** OS API gates invoked *)
  fi_sites : site_stats;  (** run-time-guarded vs elided dereferences *)
  fi_static_sites : int;  (** accesses discharged at compile time *)
  fi_fnptr_calls : int;
  fi_spill_bytes : int;
      (** measured high-water mark of transient stack temporaries
          (expression spills + pushed call arguments) *)
  fi_runtime_bytes : int;
      (** deepest stack use of any runtime-helper or gate call made by
          this function, including its return address; 0 when none *)
}

type output = {
  code : Amulet_link.Asm.item list;
  data : Amulet_link.Asm.item list;
  infos : fn_info list;
  handlers : string list;  (** functions named [handle_*] (event entry points) *)
  loops : (string * int) list;
      (** [(header label, max body executions)] for every loop the
          [loop_bound] oracle bounded.  The header label is the loop's
          back-edge target and is emitted as an ordinary symbol, so
          the bound can be attached to the linked image (as a
          [wcet.loop.<label>] note) without changing any code byte. *)
}

val fold_const : Tast.texpr -> int option
(** Exact 16-bit constant folding, reproducing the machine's
    signedness rules; the range analysis must agree with codegen on
    which indices are compile-time constants. *)

val log2_exact : int -> int option
(** [log2_exact n] is [Some k] iff [n = 2^k], [n > 0].  Exported so
    the range analysis agrees with codegen on which multiplications
    compile to ADD-doubling (and are therefore visible to the binary
    verifier) rather than a [__mulhi] helper call. *)

val gen_program :
  prefix:string ->
  mode:Isolation.mode ->
  ?shadow:bool ->
  classify:classifier ->
  loop_bound:(Srcloc.t -> int option) ->
  Tast.program ->
  output
(** [classify] is consulted once per computed-address dereference site
    (pointer deref, [->], dynamically-indexed array) in the modes that
    insert guards; [Proven_safe] suppresses the guard.

    [loop_bound] is consulted once per loop statement with the
    condition's source location ({!Range.run} is the producer); a
    [Some b] is recorded against the loop's header label in
    [output.loops] and changes nothing about the emitted code.

    [shadow] enables the shadow return-address stack (an optional
    hardening on top of any mode): prologues copy the return address
    into the InfoMem shadow stack, epilogues compare and fault on
    mismatch, replacing the plain bounds check on the return slot.
    @raise Srcloc.Error on constructs the backend cannot compile
    (non-constant global initializers, struct assignment, ...). *)
