(** The AmuletOS system API, as seen by application code.

    Applications call these as ordinary C functions (up to three
    scalar/pointer arguments); the compiler routes each call through
    the AFT-generated context-switch gate ([__gate_<name>]).  The OS
    model in [amulet_os] implements the matching services and
    validates every application-supplied pointer against the calling
    app's data bounds before touching memory — the paper's "carefully
    handle application-provided pointers passed through API calls". *)

val signatures : (string * Ctype.t) list
(** [(name, function type)] for every API entry point. *)

val names : string list

val exists : string -> bool

val gate_label : string -> string
(** Linker symbol of the gate stub for an API name. *)

(** {1 Service cost model}

    The single source of truth for service dispatch costs: the kernel
    ([Amulet_os.Api]) charges exactly these cycles at run time, and
    the static WCET certifier ([Amulet_analysis.Wcet]) sums the same
    constants for its per-call upper bound, so the two cannot drift
    apart. *)

val base_charge : string -> int
(** Fixed cycles charged to every dispatch of a service. *)

val per_word_charge : int
(** Cycles per 16-bit word the kernel copies into app memory. *)

val validate_charge : int
(** Cycles for validating one app-supplied pointer range; skipped for
    statically certified call sites. *)

val range_services : string list
(** Services that take an app pointer and therefore pay
    {!validate_charge} when uncertified. *)

val max_variable_charge : string -> int
(** Upper bound of the data-dependent charge (the kernel clamps all
    app-supplied lengths, so this is finite for every service). *)

val worst_case_charge : certified:bool -> string -> int
(** [base + validate (if applicable and uncertified) + max variable] —
    an upper bound on what any single dispatch of the service can
    charge. *)
