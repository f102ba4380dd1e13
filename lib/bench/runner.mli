(** The statistical gateheavy benchmark: the measurement core behind
    [amulet bench].

    Per isolation mode it drives the gateheavy app's button handler
    back-to-back under the full kernel with the cycle profiler armed,
    measuring host throughput over N independent trials after a
    warmup, folding the dispatch records into dispatch-latency and
    handler-duration histograms, and collecting the per-PC-class cycle
    split that yields cycle-exact energy attribution. *)

module Iso := Amulet_cc.Isolation
module Hist := Amulet_obs.Hist

type mode_run = {
  mr_mode : Iso.mode;
  mr_rates : float array;  (** cycles/sec, one per trial *)
  mr_trial_cycles : int array;  (** simulated cycles per trial *)
  mr_latency : Hist.t;  (** dispatch-latency cycles *)
  mr_handler : Hist.t;
      (** [dr_cycles] of every handled [handle_button] dispatch *)
  mr_class_cycles : (string * int) list;
      (** profiler-class slug (plus [host_services]) -> cycles over
          the measured window *)
  mr_measured_dispatches : int;  (** trials × dispatches *)
}

val run_mode :
  ?warmup:int ->
  hooks:bool ->
  trials:int ->
  dispatches:int ->
  Iso.mode ->
  mode_run
(** Drive one mode.  With [hooks] the cycle profiler is armed; without,
    the machine runs on the predecoded-block fast path and the class
    breakdown is absent — there is no profiler to fill it.  Simulated
    cycles and both histograms (every dispatch's [dr_latency], every
    handled button dispatch's [dr_cycles]) are the same either way. *)

val hooks_off_suffix : string
(** ["+hooks-off"], appended to the mode name in snapshot rows. *)

val host_meta : unit -> (string * string) list
(** OCaml version, OS, word size, hostname when known. *)

val run :
  ?modes:Iso.mode list ->
  ?trials:int ->
  ?dispatches:int ->
  ?warmup:int ->
  ?gate_runs:int ->
  armed:bool ->
  quick:bool ->
  unit ->
  Schema.doc
(** With [armed]: every mode armed and every mode hooks-off (the
    simulated-cycle, latency and handler-duration identity between the
    two asserted),
    plus the deterministic gate costs (context-switch cycles and the
    gate-certification ablation).  Without: the hooks-off rows only,
    for the CI speedup floor — cheap enough to run on every push.
    Unspecified parameters default per [quick]: quick = 3 trials ×
    300 dispatches, full = 5 × 1500. *)

val pp_doc : Format.formatter -> Schema.doc -> unit
(** Human-readable per-mode table (throughput median ± MAD,
    cycles/dispatch, latency p50/p99, energy per dispatch) and the
    gate costs. *)
