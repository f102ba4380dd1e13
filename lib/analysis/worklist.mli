(** The worklist fixpoint shared by the binary analyses ({!Verifier},
    {!Stackcert}, {!Gate_taint}): block-entry states keyed by address,
    joined on every incoming edge, with a per-client widening rule. *)

val solve :
  entries:(int * 'st) list ->
  join:('st -> 'st -> 'st) ->
  equal:('st -> 'st -> bool) ->
  widen:(int -> count:int -> old:'st -> 'st -> 'st) ->
  transfer:(int -> 'st -> (int * 'st) list) ->
  (int, 'st) Hashtbl.t
(** Schedule every [entries] state, then process the queue first in,
    first out: [transfer a st] runs block [a] from entry state [st]
    and returns the states it propagates along its outgoing edges.  A
    state arriving at an unseen address is stored as is; otherwise it
    is joined into the stored one.  When the join changes the stored
    state, the address's change count goes up by one and
    [widen a ~count ~old joined] picks the new state (return [joined]
    to keep it, or raise to give up); the block is requeued only if
    the result still differs from [old].  Returns the final
    block-entry states. *)
