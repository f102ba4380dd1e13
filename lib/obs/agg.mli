(** Streaming aggregation of {!Obs} records into mergeable
    per-key statistics.

    An [Agg.t] folds spans, counters and instants into {!Hist}
    histograms as they are emitted — attach it as a sink with {!sink}
    or feed parsed records with {!add} — so percentile queries never
    require retaining samples: memory is O(distinct keys × buckets)
    regardless of run length.  Two aggregates built from disjoint
    record streams {!merge} into exactly the aggregate of the
    combined stream (per-domain fleet/campaign shards combine
    losslessly). *)

type t

val create : unit -> t

val add : t -> Obs.record -> unit

val sink : t -> Obs.sink
(** Feed every emitted record into the aggregate.  [close] is a
    no-op: the aggregate stays queryable after the context closes. *)

val merge : t -> t -> t
(** Pure; associative and commutative. *)

val records : t -> int
(** Total records folded in. *)

val time_range : t -> (int * int) option
(** [Some (first, last)] timestamp covered (span ends included). *)

(** {1 Spans} — duration histogram per [(cat, name)] *)

val span_hist : t -> cat:string -> name:string -> Hist.t option
val spans : t -> ((string * string) * Hist.t) list
(** Sorted by [(cat, name)]. *)

(** {1 Counters} — value histogram plus last/max per name *)

type counter = {
  c_hist : Hist.t;  (** distribution of every recorded value *)
  c_last : int;  (** value with the latest timestamp *)
  c_last_ts : int;
  c_max : int;
}

val counter : t -> string -> counter option
val counters : t -> (string * counter) list
(** Sorted by name. *)

(** {1 Instants} — occurrence count per [(cat, name)] *)

val instants : t -> ((string * string) * int) list
(** Sorted by [(cat, name)]. *)

val fault_cap : int

val faults : t -> (int * string) list
(** The first {!fault_cap} fault instants (timestamp, message),
    chronological; retention is bounded even if the run faults
    forever. *)

val fault_count : t -> int
(** Total fault instants seen, including those beyond the cap. *)

(** {1 Trace files} *)

val of_channel : in_channel -> t
(** Aggregate a trace file in either format the sinks write.  JSONL is
    folded line by line in constant memory; a Chrome document is
    parsed whole.
    @raise Json.Parse_error on malformed input; for JSONL the message
    names the 1-based line. *)

val pp : Format.formatter -> t -> unit
(** Span statistics (count/total/avg/p50/p99/max per name), counter
    maxima and finals, instant counts, and every retained fault
    instant with its message. *)
