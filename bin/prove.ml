(* amulet prove: discharge the write-containment proof obligations.

   Runs the k-induction engine over the abstract transition system for
   every obligation in the matrix (optionally restricted by mode),
   replays each refutation's counterexample trace on the concrete
   machine, and crosschecks the attack corpus expectations against the
   abstract model.  Exits non-zero when any obligation lands off its
   documented expectation, a counterexample fails to replay, or a
   corpus cell mismatches. *)

module Iso = Amulet_cc.Isolation
module A = Amulet_proof.Absmachine
module Engine = Amulet_proof.Engine
module Ob = Amulet_proof.Obligations
module Lemmas = Amulet_proof.Lemmas
module Replay = Amulet_proof.Replay
module Proofcheck = Amulet_sec.Proofcheck
module J = Amulet_obs.Json

(* ------------------------------------------------------------------ *)
(* Per-obligation record: verdict plus (for refutations) the replay.   *)

type checked = {
  ck_result : Ob.result;
  ck_replay : (Replay.report, string) result option;
      (** [Some] for refuted obligations when replay is enabled *)
}

let ck_ok c =
  c.ck_result.Ob.res_ok
  &&
  match c.ck_replay with
  | None | Some (Ok { Replay.rp_ok = true; _ }) -> true
  | Some (Ok _) | Some (Error _) -> false

let check_obligation ~k_max ~replay ob =
  let r = Ob.check ~k_max ob in
  let rep =
    if not replay then None
    else
      match Ob.refuted_trace r with
      | None -> None
      | Some (trace, final) ->
        Some (Replay.replay ~mode:ob.Ob.ob_mode ~trace ~final ())
  in
  { ck_result = r; ck_replay = rep }

(* ------------------------------------------------------------------ *)
(* Human report                                                        *)

let pp_verdict_line ppf (c : checked) =
  let r = c.ck_result in
  let ob = r.Ob.res_ob in
  let verdict =
    match r.Ob.res_verdict with
    | Engine.Proved { k; reachable; strengthened } ->
      Printf.sprintf "PROVED  k=%d, %d reachable%s" k reachable
        (if strengthened then ", strengthened" else "")
    | Engine.Refuted { trace; _ } ->
      Printf.sprintf "REFUTED %d-step counterexample" (List.length trace)
    | Engine.Unknown { k_max; reason } ->
      Printf.sprintf "UNKNOWN k_max=%d (%s)" k_max reason
  in
  let replay =
    match c.ck_replay with
    | None -> ""
    | Some (Ok rep) when rep.Replay.rp_ok -> "  [replayed]"
    | Some (Ok rep) -> "  [REPLAY FAILED: " ^ rep.Replay.rp_detail ^ "]"
    | Some (Error e) -> "  [replay skipped: " ^ e ^ "]"
  in
  Format.fprintf ppf "%c %-26s %-14s %-10s %s%s"
    (if ck_ok c then ' ' else '!')
    ob.Ob.ob_name (Iso.name ob.Ob.ob_mode)
    (A.attacker_name ob.Ob.ob_attacker)
    verdict replay

let pp_trace ppf (c : checked) =
  match Ob.refuted_trace c.ck_result with
  | None -> ()
  | Some (trace, final) ->
    Format.fprintf ppf "  counterexample for %s:@."
      c.ck_result.Ob.res_ob.Ob.ob_name;
    List.iter
      (fun (s, a) ->
        Format.fprintf ppf "    %a  --%a-->@." A.pp_state s A.pp_action a)
      trace;
    Format.fprintf ppf "    %a@." A.pp_state final

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)

let json_of_checked (c : checked) =
  let r = c.ck_result in
  let ob = r.Ob.res_ob in
  let verdict =
    match r.Ob.res_verdict with
    | Engine.Proved { k; reachable; strengthened } ->
      J.Obj
        [ ("result", J.Str "proved"); ("k", J.Int k);
          ("reachable", J.Int reachable); ("strengthened", J.Bool strengthened);
        ]
    | Engine.Refuted { trace; final } ->
      J.Obj
        [ ("result", J.Str "refuted");
          ("trace",
           J.Arr
             (List.map
                (fun (s, a) ->
                  J.Obj
                    [ ("state", J.Str (Format.asprintf "%a" A.pp_state s));
                      ("action", J.Str (A.action_to_string a));
                    ])
                trace));
          ("final", J.Str (Format.asprintf "%a" A.pp_state final));
        ]
    | Engine.Unknown { k_max; reason } ->
      J.Obj
        [ ("result", J.Str "unknown"); ("k_max", J.Int k_max);
          ("reason", J.Str reason);
        ]
  in
  let replay =
    match c.ck_replay with
    | None -> J.Null
    | Some (Error e) -> J.Obj [ ("skipped", J.Str e) ]
    | Some (Ok rep) ->
      J.Obj
        [ ("ok", J.Bool rep.Replay.rp_ok); ("stop", J.Str rep.Replay.rp_stop);
          ("detail", J.Str rep.Replay.rp_detail);
          ("breaches", J.Int (List.length rep.Replay.rp_breaches));
        ]
  in
  J.Obj
    [ ("name", J.Str ob.Ob.ob_name);
      ("mode", J.Str (Iso.name ob.Ob.ob_mode));
      ("attacker", J.Str (A.attacker_name ob.Ob.ob_attacker));
      ("property", J.Str (Ob.prop_name ob.Ob.ob_prop));
      ("expect",
       J.Str (match ob.Ob.ob_expect with
         | Ob.Theorem -> "theorem"
         | Ob.Refutable -> "refutable"));
      ("description", J.Str ob.Ob.ob_descr);
      ("verdict", verdict);
      ("replay", replay);
      ("ok", J.Bool (ck_ok c));
    ]

let json_of_crosscheck (r : Proofcheck.row) =
  J.Obj
    [ ("attack", J.Str r.Proofcheck.cc_attack);
      ("mode", J.Str (Iso.name r.Proofcheck.cc_mode));
      ("expected", J.Str (Amulet_sec.Attacks.layer_name r.Proofcheck.cc_expected));
      ("verdict",
       J.Str
         (match r.Proofcheck.cc_verdict with
         | Proofcheck.V_theorem -> "theorem"
         | Proofcheck.V_counterexample -> "counterexample-replayed"
         | Proofcheck.V_unmodelled -> "unmodelled"
         | Proofcheck.V_mismatch { derived; _ } ->
           "mismatch:" ^ Amulet_sec.Attacks.layer_name derived));
      ("ok", J.Bool (Proofcheck.row_ok r));
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run modes k_max no_replay no_crosscheck lemmas traces json_out list () =
  if list then begin
    List.iter
      (fun (ob : Ob.obligation) ->
        Format.printf "%-26s %-14s %-10s %-9s %s@." ob.Ob.ob_name
          (Iso.name ob.Ob.ob_mode)
          (A.attacker_name ob.Ob.ob_attacker)
          (match ob.Ob.ob_expect with
          | Ob.Theorem -> "theorem"
          | Ob.Refutable -> "refutable")
          ob.Ob.ob_descr)
      Ob.all;
    0
  end
  else begin
    let modes = if modes = [] then Iso.all else modes in
    let obligations =
      List.filter (fun ob -> List.mem ob.Ob.ob_mode modes) Ob.all
    in
    let checked =
      List.map (check_obligation ~k_max ~replay:(not no_replay)) obligations
    in
    Format.printf "write-containment obligations (k_max=%d):@." k_max;
    List.iter (fun c -> Format.printf "%a@." pp_verdict_line c) checked;
    if traces then
      List.iter (fun c -> Format.printf "%a" pp_trace c) checked;
    let lemma_outcome =
      if not lemmas then None
      else begin
        let o = Lemmas.validate () in
        Format.printf "opcode abstraction lemmas: %d cases, %d failures@."
          o.Lemmas.lv_cases
          (List.length o.Lemmas.lv_failures);
        List.iter
          (fun (f : Lemmas.failure) ->
            Format.printf "  ! %s: %s@." f.Lemmas.f_case f.Lemmas.f_reason)
          o.Lemmas.lv_failures;
        Some o
      end
    in
    let crosscheck =
      if no_crosscheck then None
      else begin
        let rows = Proofcheck.run ~modes () in
        let bad = List.filter (fun r -> not (Proofcheck.row_ok r)) rows in
        Format.printf
          "attack-corpus crosscheck: %d cells, %d mismatches@."
          (List.length rows) (List.length bad);
        List.iter
          (fun r -> Format.printf "  ! %a@." Proofcheck.pp_row r)
          bad;
        Some rows
      end
    in
    let ok =
      List.for_all ck_ok checked
      && (match lemma_outcome with
         | Some o -> o.Lemmas.lv_failures = []
         | None -> true)
      && match crosscheck with Some rows -> Proofcheck.ok rows | None -> true
    in
    (match json_out with
    | None -> ()
    | Some path ->
      let doc =
        J.Obj
          [ ("k_max", J.Int k_max);
            ("modes", J.Arr (List.map (fun m -> J.Str (Iso.name m)) modes));
            ("obligations", J.Arr (List.map json_of_checked checked));
            ("lemmas",
             match lemma_outcome with
             | None -> J.Null
             | Some o ->
               J.Obj
                 [ ("cases", J.Int o.Lemmas.lv_cases);
                   ("failures", J.Int (List.length o.Lemmas.lv_failures));
                 ]);
            ("crosscheck",
             match crosscheck with
             | None -> J.Null
             | Some rows -> J.Arr (List.map json_of_crosscheck rows));
            ("ok", J.Bool ok);
          ]
      in
      Cli.write_json path doc;
      Format.printf "proof report written to %s@." path);
    Format.printf "%s@." (if ok then "all obligations discharged" else "FAILED");
    if ok then 0 else 1
  end

open Cmdliner

let k_max_arg =
  Arg.(
    value & opt int 8
    & info [ "k-max" ] ~docv:"K"
        ~doc:"Deepest induction to attempt before reporting unknown.")

let no_replay_arg =
  Arg.(
    value & flag
    & info [ "no-replay" ]
        ~doc:"Skip replaying refutation traces on the concrete machine.")

let no_crosscheck_arg =
  Arg.(
    value & flag
    & info [ "no-crosscheck" ]
        ~doc:"Skip the attack-corpus expectation crosscheck.")

let lemmas_arg =
  Arg.(
    value & flag
    & info [ "lemmas" ]
        ~doc:
          "Also run the per-opcode abstraction lemmas (differential \
           execution over the full opcode corpus).")

let traces_arg =
  Arg.(
    value & flag
    & info [ "traces" ]
        ~doc:"Print each refuted obligation's counterexample trace.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full machine-readable report to $(docv).")

let list_arg =
  Arg.(
    value & flag & info [ "list" ] ~doc:"List the obligation matrix and exit.")

let cmd =
  Cli.cmd "prove" ~doc:"discharge the write-containment proof obligations"
    Term.(
      const run
      $ Cli.modes
          ~doc:"Restrict to one isolation mode (repeatable; default all four)."
      $ k_max_arg $ no_replay_arg $ no_crosscheck_arg $ lemmas_arg $ traces_arg
      $ json_arg $ list_arg)
