(** Compiler driver: source text to assembly sections plus the
    analysis facts the AFT and profiler need. *)

type compiled = {
  prefix : string;
  mode : Isolation.mode;
  code : Amulet_link.Asm.item list;
  data : Amulet_link.Asm.item list;
  infos : Codegen.fn_info list;
  handlers : string list;  (** [handle_*] event entry points *)
  stack_bytes : int;  (** worst-case stack for any handler *)
  recursive : bool;  (** stack bound came from the recursion default *)
  loops : (string * int) list;
      (** [(header label, max body executions)] from the loop-bound
          oracle — see {!Codegen.output.loops} *)
}

val default_stack_bytes : int
(** Fallback stack reservation when recursion defeats the analysis. *)

val compile :
  prefix:string ->
  mode:Isolation.mode ->
  ?shadow:bool ->
  ?elide:bool ->
  string ->
  compiled
(** Full pipeline: lex, parse, phase-1 feature check, type check, the
    value-range analysis ({!Range.run}, exactly once), code generation
    with isolation checks, stack-depth analysis.  The range analysis
    always records the loop bounds into [compiled.loops] for the WCET
    certifier and always rejects accesses proven out of bounds;
    [elide] (default true) decides only whether codegen drops the
    guards at the sites it proved safe ([false] keeps every guard, to
    measure the unoptimized check cost).
    @raise Srcloc.Error on any source-level problem. *)
