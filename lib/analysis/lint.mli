(** Whole-image static certifier: runs CFI reconstruction, the SFI
    verifier, the binary stack bound ({!Stackcert}),
    gate-argument provenance ({!Gate_taint}) and the WCET bound
    ({!Wcet}) over every app section of a linked firmware and folds
    the outcomes into one diagnostic report.  [amulet lint] renders
    it; the AFT consumes {!certified_gates} to stamp certification
    notes into the image.

    This is the only module that orders the binary passes.  They run
    as two chains over the one CFG {!Cfi} reconstructs per app:
    {!gates_chain} (CFI → SFI → Stackcert → Gate_taint) and
    {!wcet_chain} (CFI → Wcet). *)

type severity = Note | Warn | Error

type diag = {
  d_app : string;  (** "" for image-level diagnostics *)
  d_pass : string;
      (** "image" | "sfi" | "cfi" | "stackcert" | "gates" | "wcet"
          | "proof" *)
  d_severity : severity;
  d_addr : int option;
  d_message : string;
}

type app_report = {
  r_app : string;
  r_sfi : (Verifier.stats, Verifier.violation list) result option;
      (** [None] when CFI failed *)
  r_cfi : (Cfi.t, Cfi.violation list) result;
  r_stack : Stackcert.verdict option;  (** [None] when CFI failed *)
  r_gates : Gate_taint.t option;
  r_certified : string list;
      (** services whose dynamic gate-pointer validation is provably
          redundant for this app (requires the SFI verdict, the CFI
          proof and a mode that keeps app code immutable) *)
  r_wcet : Wcet.t option;  (** [None] when CFI failed *)
}

type report = {
  l_mode : Amulet_cc.Isolation.mode;
  l_apps : app_report list;
  l_diags : diag list;
  l_errors : int;
  l_warnings : int;
}

val run :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  apps:string list ->
  report
(** An empty [apps] list yields a single image-level error diagnostic
    (a firmware with nothing to certify must not pass vacuously). *)

(** The gates chain for one app.  Each stage runs when first forced
    and forces the stages it depends on. *)
type gates_chain = {
  g_sfi : (Verifier.stats, Verifier.violation list) result option Lazy.t;
      (** [None] when CFI failed *)
  g_cfi : (Cfi.t, Cfi.violation list) result Lazy.t;
  g_stack : Stackcert.t option Lazy.t;  (** [None] when CFI failed *)
  g_gates : Gate_taint.t option Lazy.t;  (** [None] when CFI failed *)
  g_certified : string list Lazy.t;
      (** the chain's verdict: empty under [No_isolation] without
          running any pass, empty when CFI or SFI fails, else the
          gate pass's [gt_certified] *)
}

val gates_chain :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  prefix:string ->
  gates_chain

val certified_gates :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  prefix:string ->
  string list
(** [Lazy.force (gates_chain ...).g_certified]: the services whose
    gate-pointer validation the kernel may skip for [prefix]. *)

val wcet_chain :
  image:Amulet_link.Image.t ->
  mode:Amulet_cc.Isolation.mode ->
  prefix:string ->
  (Wcet.t, Cfi.violation list) result
(** CFI reconstruction, then the WCET bound over the certified CFG.
    Run it on the finished image: the pass reads the [wcet.loop.*]
    and [cert.gates.*] notes the AFT stamps.
    @raise Invalid_argument when the image lacks [prefix]'s section
    symbols. *)

val severity_name : severity -> string
val pp_diag : Format.formatter -> diag -> unit
