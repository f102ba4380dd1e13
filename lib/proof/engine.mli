(** Explicit-state bounded model checking with k-induction.

    BDD-free and SMT-free: the abstract systems proved here have a few
    hundred states, so the engine enumerates — but it reports [Proved]
    only for properties that are genuinely k-inductive (with optional
    invariant strengthening), and its counterexamples are shortest
    traces from a breadth-first search, replayable on the concrete
    machine. *)

type ('s, 'a) system = {
  universe : 's list;  (** finite superset of every reachable state *)
  inits : 's list;
  actions : 'a list;
  step : 's -> 'a -> 's option;  (** [None]: action disabled *)
  prop : 's -> bool;
  equal : 's -> 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
}

type ('s, 'a) verdict =
  | Proved of { k : int; reachable : int; strengthened : bool }
  | Refuted of { trace : ('s * 'a) list; final : 's }
      (** shortest path from an initial state to a property violation *)
  | Unknown of { k_max : int; reason : string }

val k_induction :
  ?k_max:int -> ?aux:('s -> bool) -> ('s, 'a) system -> ('s, 'a) verdict
(** Prove [prop] by k-induction, searching k = 1..[k_max] (default 8).
    [aux] conjoins an auxiliary strengthening predicate; it must hold
    on every reachable state or the verdict is [Unknown].  A reachable
    violation of [prop] yields [Refuted] with a shortest trace. *)

val pp_trace :
  pp_state:(Format.formatter -> 's -> unit) ->
  pp_action:(Format.formatter -> 'a -> unit) ->
  Format.formatter ->
  ('s * 'a) list * 's ->
  unit

val pp_verdict :
  ('s, 'a) system -> Format.formatter -> ('s, 'a) verdict -> unit
