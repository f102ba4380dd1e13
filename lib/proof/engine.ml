(* A small explicit-state bounded model checker with k-induction.

   BDD-free and SMT-free on purpose: the abstract systems this repo
   proves things about have a few hundred states, so the engine
   enumerates.  What it keeps from the big-tool playbook is the proof
   *rule*: a property is reported [Proved] only when it is k-inductive
   (base case: no violation within k steps of an initial state; step
   case: every length-k path of property states, starting anywhere in
   the universe, only steps to property states).  Plain reachability
   would give the same boolean answer here, but the inductive form is
   what transfers to the unbounded concrete system — and it honestly
   exposes when an invariant needs strengthening (see the MPU window
   obligations: the bare containment property is *not* inductive at
   any k, because stuttering on unreachable disabled-MPU states can
   precede a violation; the [aux] predicate closes it).

   Counterexamples come out of a breadth-first search, so they are
   shortest traces — directly replayable on the concrete [Machine]
   (see [Replay]). *)

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
  | Unknown of { k_max : int; reason : string }

let mem_eq eq x l = List.exists (fun y -> eq x y) l

let successors sys s =
  List.filter_map
    (fun a -> match sys.step s a with None -> None | Some t -> Some (a, t))
    sys.actions

(* Breadth-first reachability with parent edges; stops early at the
   first state violating [prop] (shortest counterexample). *)
let explore sys =
  (* visited: (state, parent) with parent = None for inits *)
  let visited = ref [] in
  let parent_of s =
    List.find_map
      (fun (t, p) -> if sys.equal s t then Some p else None)
      !visited
  in
  let seen s = List.exists (fun (t, _) -> sys.equal s t) !visited in
  let rec trace_to s =
    match parent_of s with
    | Some (Some (p, a)) -> trace_to p @ [ (p, a) ]
    | _ -> []
  in
  let bad = ref None in
  List.iter
    (fun s -> if not (seen s) then visited := (s, None) :: !visited)
    sys.inits;
  (match List.find_opt (fun s -> not (sys.prop s)) sys.inits with
  | Some s -> bad := Some s
  | None ->
    let frontier = ref sys.inits in
    while !bad = None && !frontier <> [] do
      let next = ref [] in
      List.iter
        (fun s ->
          if !bad = None then
            List.iter
              (fun (a, t) ->
                if !bad = None && not (seen t) then begin
                  visited := (t, Some (s, a)) :: !visited;
                  if not (sys.prop t) then bad := Some t
                  else next := t :: !next
                end)
              (successors sys s))
        !frontier;
      frontier := !next
    done);
  let reachable = List.map fst !visited in
  match !bad with
  | Some s -> (reachable, Some (trace_to s, s))
  | None -> (reachable, None)

(* Step case of k-induction for property [q]: with
   F_0 = { s in universe | q s } and F_{i+1} = post(F_i) ∩ q,
   every successor of every state in F_{k-1} must satisfy [q].
   (F_i is the set of states ending some q-path of i+1 states, so
   k = 1 is ordinary induction over the whole universe; larger k
   restricts the start states to ends of longer q-paths.) *)
let inductive_at sys q k =
  let f0 = List.filter q sys.universe in
  let post set =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (_, t) ->
            if q t && not (mem_eq sys.equal t acc) then t :: acc else acc)
          acc (successors sys s))
      [] set
  in
  let rec iterate i set = if i = 0 then set else iterate (i - 1) (post set) in
  let fk = iterate (k - 1) f0 in
  List.for_all (fun s -> List.for_all (fun (_, t) -> q t) (successors sys s)) fk

let k_induction ?(k_max = 8) ?aux sys =
  let reachable, cex = explore sys in
  match cex with
  | Some (trace, final) -> Refuted { trace; final }
  | None -> (
    let q =
      match aux with None -> sys.prop | Some f -> fun s -> sys.prop s && f s
    in
    (* the strengthening must itself be an invariant of the reachable
       system, or the "proof" would be of a different property *)
    match List.find_opt (fun s -> not (q s)) reachable with
    | Some _ ->
      Unknown { k_max; reason = "auxiliary invariant fails on a reachable state" }
    | None -> (
      let rec search k =
        if k > k_max then
          Unknown { k_max; reason = "property not k-inductive up to k_max" }
        else if inductive_at sys q k then
          Proved
            { k; reachable = List.length reachable; strengthened = aux <> None }
        else search (k + 1)
      in
      search 1))

let pp_trace ~pp_state ~pp_action ppf (trace, final) =
  List.iter
    (fun (s, a) ->
      Format.fprintf ppf "  %a --%a-->@." pp_state s pp_action a)
    trace;
  Format.fprintf ppf "  %a" pp_state final

let pp_verdict sys ppf = function
  | Proved { k; reachable; strengthened } ->
    Format.fprintf ppf "proved (k=%d induction%s, %d reachable states)" k
      (if strengthened then " with invariant strengthening" else "")
      reachable
  | Refuted { trace; final } ->
    Format.fprintf ppf "refuted:@.%a"
      (pp_trace ~pp_state:sys.pp_state ~pp_action:sys.pp_action)
      (trace, final)
  | Unknown { k_max; reason } ->
    Format.fprintf ppf "unknown (k_max=%d: %s)" k_max reason
