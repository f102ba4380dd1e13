(** The [BENCH_*.json] perf-trajectory snapshot: schema v2 writer and
    reader, and the noise-aware regression comparator that gates
    PR-over-PR performance.

    Schema v2 records, per isolation mode: host throughput over N
    trials (median/MAD/CI and the raw trials), deterministic
    simulated cycles per dispatch, dispatch-latency and
    handler-duration histograms ({!Amulet_obs.Hist} sparse encoding,
    so later tooling can merge snapshots losslessly), and cycle-exact
    energy attribution per PC class; plus the deterministic gate
    costs (context switch, gate certification) and host metadata. *)

module Hist := Amulet_obs.Hist
module Json := Amulet_obs.Json

type rate = {
  r_summary : Stats.summary;  (** cycles/sec across trials *)
  r_trials : float list;
}

type mode_row = {
  m_mode : string;  (** isolation-mode name *)
  m_rate : rate;  (** host-dependent throughput *)
  m_cycles_per_dispatch : float;  (** deterministic simulated cost *)
  m_latency : Hist.t option;  (** dispatch-latency cycles *)
  m_handler : Hist.t option;  (** handler-duration cycles *)
  m_class_cycles : (string * int) list;
      (** profiler-class slug -> cycles over the measured window *)
  m_energy_per_dispatch_j : float option;  (** deterministic *)
}

type cert_row = {
  c_mode : string;
  c_dynamic : float;
  c_certified : float;
  c_per_gate : float;
  c_services : string list;
}

type gate_costs = {
  g_ctx_switch : (string * float) list;  (** mode -> cycles, one way *)
  g_cert : cert_row list;
}

type doc = {
  d_schema : int;
  d_bench : string;
  d_quick : bool;
  d_trials : int;
  d_dispatches : int;  (** per trial *)
  d_warmup : int;
  d_host : (string * string) list;
  d_modes : mode_row list;
  d_gate : gate_costs;
}

val to_json : doc -> Json.t
(** Always schema v2. *)

val of_json : Json.t -> (doc, string) result
(** Reads schema 2; any other schema version is an [Error] naming
    it. *)

val write_file : string -> doc -> unit
val read_file : string -> (doc, string) result

(** {1 Regression comparison} *)

type verdict = {
  v_metric : string;
  v_mode : string;
  v_old : float;
  v_new : float;
  v_change_pct : float;  (** positive = worse *)
  v_gating : bool;  (** false = informational only *)
  v_regressed : bool;
}

val compare_docs :
  current:doc ->
  baseline:doc ->
  det_threshold_pct:float ->
  rate_threshold_pct:float option ->
  verdict list
(** Deterministic simulated metrics (cycles/dispatch, context-switch
    and gate-certification cycles, latency p99, energy/dispatch) gate
    at [det_threshold_pct].  Host throughput is compared only when
    [rate_threshold_pct] is given — and then a drop must {e also}
    exceed three robust sigmas of the combined trial noise to count,
    so a noisy host cannot fail the gate on its own; without a
    threshold the rate rows are informational.  Modes missing from
    either side are skipped. *)

val regressed : verdict list -> bool
val pp_verdicts : Format.formatter -> verdict list -> unit

val missing_in_baseline : current:doc -> baseline:doc -> string list
(** Human-readable list of metrics the current snapshot carries that
    the baseline lacks — what {!compare_docs} silently skipped, in its
    order.  Both come from one comparability walk, so a metric the
    current snapshot carries is either compared or listed here, never
    both.  Empty when every current metric found a baseline
    counterpart. *)
