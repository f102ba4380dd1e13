module Hist = Amulet_obs.Hist
module Json = Amulet_obs.Json

type rate = { r_summary : Stats.summary; r_trials : float list }

type mode_row = {
  m_mode : string;
  m_rate : rate;
  m_cycles_per_dispatch : float;
  m_latency : Hist.t option;
  m_handler : Hist.t option;
  m_class_cycles : (string * int) list;
  m_energy_per_dispatch_j : float option;
}

type cert_row = {
  c_mode : string;
  c_dynamic : float;
  c_certified : float;
  c_per_gate : float;
  c_services : string list;
}

type gate_costs = {
  g_ctx_switch : (string * float) list;
  g_cert : cert_row list;
}

type doc = {
  d_schema : int;
  d_bench : string;
  d_quick : bool;
  d_trials : int;
  d_dispatches : int;
  d_warmup : int;
  d_host : (string * string) list;
  d_modes : mode_row list;
  d_gate : gate_costs;
}

(* ------------------------------------------------------------------ *)
(* Writer (always v2) *)

let json_of_rate r =
  Json.Obj
    [
      ("median", Json.Float r.r_summary.Stats.median);
      ("mad", Json.Float r.r_summary.Stats.mad);
      ("mean", Json.Float r.r_summary.Stats.mean);
      ("ci_lo", Json.Float r.r_summary.Stats.ci_lo);
      ("ci_hi", Json.Float r.r_summary.Stats.ci_hi);
      ("trials", Json.Arr (List.map (fun x -> Json.Float x) r.r_trials));
    ]

let json_of_mode m =
  Json.Obj
    (List.concat
       [
         [
           ("mode", Json.Str m.m_mode);
           ("cycles_per_sec", json_of_rate m.m_rate);
           ("cycles_per_dispatch", Json.Float m.m_cycles_per_dispatch);
         ];
         (match m.m_latency with
         | Some h ->
           [
             ("dispatch_latency", Hist.to_json h);
             ("dispatch_latency_summary", Hist.summary_json h);
           ]
         | None -> []);
         (match m.m_handler with
         | Some h ->
           [
             ("handler_cycles", Hist.to_json h);
             ("handler_cycles_summary", Hist.summary_json h);
           ]
         | None -> []);
         [
           ( "class_cycles",
             Json.Obj
               (List.map (fun (slug, c) -> (slug, Json.Int c)) m.m_class_cycles)
           );
         ];
         (match m.m_energy_per_dispatch_j with
         | Some j -> [ ("energy_per_dispatch_j", Json.Float j) ]
         | None -> []);
       ])

let json_of_gate g =
  Json.Obj
    [
      ( "context_switch_cycles",
        Json.Obj (List.map (fun (m, c) -> (m, Json.Float c)) g.g_ctx_switch) );
      ( "gate_cert",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("mode", Json.Str c.c_mode);
                   ("dynamic_cycles", Json.Float c.c_dynamic);
                   ("certified_cycles", Json.Float c.c_certified);
                   ("per_gate_cycles", Json.Float c.c_per_gate);
                   ( "services",
                     Json.Arr (List.map (fun s -> Json.Str s) c.c_services) );
                 ])
             g.g_cert) );
    ]

let to_json d =
  Json.Obj
    [
      ("bench", Json.Str d.d_bench);
      ("schema", Json.Int 2);
      ("quick", Json.Bool d.d_quick);
      ("trials", Json.Int d.d_trials);
      ("dispatches", Json.Int d.d_dispatches);
      ("warmup", Json.Int d.d_warmup);
      ("host", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) d.d_host));
      ("modes", Json.Arr (List.map json_of_mode d.d_modes));
      ("gate_costs", json_of_gate d.d_gate);
    ]

(* ------------------------------------------------------------------ *)
(* Reader *)

let num = function
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

let fnum j key = num (Json.member key j)
let inum j key = Option.bind (Json.member key j) Json.to_int
let str j key = Option.bind (Json.member key j) Json.to_str

let require what = function Some x -> Ok x | None -> Error ("missing " ^ what)

let ( let* ) r f = Result.bind r f

let map_result f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let gate_of_json j =
  let ctx =
    match Json.member "context_switch_cycles" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (m, v) -> Option.map (fun f -> (m, f)) (num (Some v)))
        fields
    | _ -> []
  in
  let cert =
    match Json.member "gate_cert" j with
    | Some (Json.Arr rows) ->
      List.filter_map
        (fun r ->
          match (str r "mode", fnum r "dynamic_cycles", fnum r "certified_cycles", fnum r "per_gate_cycles") with
          | Some m, Some dyn, Some cert, Some per ->
            let services =
              match Json.member "services" r with
              | Some (Json.Arr ss) -> List.filter_map Json.to_str ss
              | _ -> []
            in
            Some
              {
                c_mode = m;
                c_dynamic = dyn;
                c_certified = cert;
                c_per_gate = per;
                c_services = services;
              }
          | _ -> None)
        rows
    | _ -> []
  in
  { g_ctx_switch = ctx; g_cert = cert }

let rate_of_floats trials =
  { r_summary = Stats.summarize (Array.of_list trials); r_trials = trials }

let mode_of_json_v2 j =
  let* mode = require "mode" (str j "mode") in
  let* cpd = require "cycles_per_dispatch" (fnum j "cycles_per_dispatch") in
  let rate =
    match Json.member "cycles_per_sec" j with
    | Some r -> (
      match Json.member "trials" r with
      | Some (Json.Arr ts) ->
        rate_of_floats (List.filter_map (fun t -> num (Some t)) ts)
      | _ -> rate_of_floats (Option.to_list (fnum r "median")))
    | None -> rate_of_floats []
  in
  let hist key = Option.bind (Json.member key j) Hist.of_json in
  let classes =
    match Json.member "class_cycles" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (slug, v) -> Option.map (fun c -> (slug, c)) (Json.to_int v))
        fields
    | _ -> []
  in
  Ok
    {
      m_mode = mode;
      m_rate = rate;
      m_cycles_per_dispatch = cpd;
      m_latency = hist "dispatch_latency";
      m_handler = hist "handler_cycles";
      m_class_cycles = classes;
      m_energy_per_dispatch_j = fnum j "energy_per_dispatch_j";
    }

let of_json_v2 j =
  let* bench = require "bench" (str j "bench") in
  let* modes =
    match Json.member "modes" j with
    | Some (Json.Arr ms) -> map_result mode_of_json_v2 ms
    | _ -> Error "missing modes"
  in
  Ok
    {
      d_schema = 2;
      d_bench = bench;
      d_quick = (match Json.member "quick" j with Some (Json.Bool b) -> b | _ -> false);
      d_trials = Option.value ~default:1 (inum j "trials");
      d_dispatches = Option.value ~default:0 (inum j "dispatches");
      d_warmup = Option.value ~default:0 (inum j "warmup");
      d_host =
        (match Json.member "host" j with
        | Some (Json.Obj fields) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
            fields
        | _ -> []);
      d_modes = modes;
      d_gate =
        (match Json.member "gate_costs" j with
        | Some g -> gate_of_json g
        | None -> { g_ctx_switch = []; g_cert = [] });
    }

let of_json j =
  match inum j "schema" with
  | Some 2 -> of_json_v2 j
  | Some n ->
    Error (Printf.sprintf "unsupported schema version %d (only 2 is read)" n)
  | None -> Error "missing schema"

let write_file path d =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json d));
  output_char oc '\n';
  close_out oc

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    match
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    with
    | exception End_of_file -> Error "truncated file"
    | text -> (
      match Json.parse text with
      | j -> of_json j
      | exception Json.Parse_error msg -> Error msg))

(* ------------------------------------------------------------------ *)
(* Comparison *)

type verdict = {
  v_metric : string;
  v_mode : string;
  v_old : float;
  v_new : float;
  v_change_pct : float;
  v_gating : bool;
  v_regressed : bool;
}

(* positive change = worse; [higher_worse] flips the sign convention *)
let change_pct ~higher_worse ~old_v ~new_v =
  if old_v = 0.0 then 0.0
  else
    (if higher_worse then (new_v -. old_v) /. old_v
     else (old_v -. new_v) /. old_v)
    *. 100.0

let det_verdict ~threshold ~metric ~mode ~old_v ~new_v =
  let pct = change_pct ~higher_worse:true ~old_v ~new_v in
  {
    v_metric = metric;
    v_mode = mode;
    v_old = old_v;
    v_new = new_v;
    v_change_pct = pct;
    v_gating = true;
    v_regressed = pct > threshold;
  }

let rate_verdict ~threshold ~mode ~(old_r : rate) ~(new_r : rate) =
  let old_v = old_r.r_summary.Stats.median
  and new_v = new_r.r_summary.Stats.median in
  let pct = change_pct ~higher_worse:false ~old_v ~new_v in
  match threshold with
  | None ->
    {
      v_metric = "cycles/sec";
      v_mode = mode;
      v_old = old_v;
      v_new = new_v;
      v_change_pct = pct;
      v_gating = false;
      v_regressed = false;
    }
  | Some tol ->
    (* a drop gates only when it clears both the relative threshold
       and three robust sigmas of the combined trial noise *)
    let noise =
      3.0
      *. (Stats.robust_sigma (Array.of_list old_r.r_trials)
          +. Stats.robust_sigma (Array.of_list new_r.r_trials))
    in
    {
      v_metric = "cycles/sec";
      v_mode = mode;
      v_old = old_v;
      v_new = new_v;
      v_change_pct = pct;
      v_gating = true;
      v_regressed = pct > tol && old_v -. new_v > noise;
    }

(* The one comparability walk behind [compare_docs] and
   [missing_in_baseline]: every metric the current snapshot carries
   either meets a comparable baseline counterpart (its verdicts,
   [Left]) or does not (its name, e.g. "latency p99 (mpu)", [Right]),
   in snapshot order: mode rows, then context switch, then gate
   certification. *)
let walk ~current ~baseline ~det_threshold_pct ~rate_threshold_pct =
  let det = det_verdict ~threshold:det_threshold_pct in
  let gap name mode = [ Either.Right (Printf.sprintf "%s (%s)" name mode) ] in
  (* [cur]: the current side carries the metric; [base]: the baseline
     has a comparable value for it *)
  let pair name mode cur base verdicts =
    match (cur, base) with
    | Some c, Some b -> List.map Either.left (verdicts b c)
    | Some _, None -> gap name mode
    | None, _ -> []
  in
  let positive x = if x > 0.0 then Some x else None in
  let nonempty = function
    | Some h when not (Hist.is_empty h) -> Some h
    | _ -> None
  in
  let p99 h = float_of_int (Hist.quantile h 0.99) in
  let mode_row (m : mode_row) =
    let mode = m.m_mode in
    match
      List.find_opt (fun (b : mode_row) -> b.m_mode = mode) baseline.d_modes
    with
    | None ->
      [ Either.Right (Printf.sprintf "mode %s (absent from baseline)" mode) ]
    | Some b ->
      let trials (r : rate) = if r.r_trials <> [] then Some r else None in
      List.concat
        [
          pair "cycles/dispatch" mode (positive m.m_cycles_per_dispatch)
            (positive b.m_cycles_per_dispatch) (fun old_v new_v ->
              [ det ~metric:"cycles/dispatch" ~mode ~old_v ~new_v ]);
          pair "latency p99" mode (nonempty m.m_latency)
            (nonempty b.m_latency) (fun bh mh ->
              [
                det ~metric:"latency p99" ~mode ~old_v:(p99 bh)
                  ~new_v:(p99 mh);
              ]);
          pair "energy/dispatch" mode m.m_energy_per_dispatch_j
            (Option.bind b.m_energy_per_dispatch_j positive)
            (fun old_v new_v ->
              [ det ~metric:"energy/dispatch" ~mode ~old_v ~new_v ]);
          pair "cycles/sec" mode (trials m.m_rate) (trials b.m_rate)
            (fun old_r new_r ->
              [
                rate_verdict ~threshold:rate_threshold_pct ~mode ~old_r
                  ~new_r;
              ]);
        ]
  in
  let ctx_row (mode, new_v) =
    match
      Option.bind (List.assoc_opt mode baseline.d_gate.g_ctx_switch) positive
    with
    | Some old_v ->
      [ Either.Left (det ~metric:"ctx-switch cycles" ~mode ~old_v ~new_v) ]
    | None when new_v > 0.0 -> gap "ctx-switch cycles" mode
    | None -> []
  in
  let cert_row (c : cert_row) =
    let mode = c.c_mode in
    pair "gate cert cycles" mode (Some c)
      (List.find_opt
         (fun (b : cert_row) -> b.c_mode = mode)
         baseline.d_gate.g_cert)
      (fun b c ->
        [
          det ~metric:"gate dynamic cycles" ~mode ~old_v:b.c_dynamic
            ~new_v:c.c_dynamic;
          det ~metric:"gate certified cycles" ~mode ~old_v:b.c_certified
            ~new_v:c.c_certified;
        ]
        @
        if b.c_per_gate > 0.0 then
          [
            det ~metric:"cycles/gate" ~mode ~old_v:b.c_per_gate
              ~new_v:c.c_per_gate;
          ]
        else [])
  in
  List.concat_map mode_row current.d_modes
  @ List.concat_map ctx_row current.d_gate.g_ctx_switch
  @ List.concat_map cert_row current.d_gate.g_cert

let compare_docs ~current ~baseline ~det_threshold_pct ~rate_threshold_pct =
  List.filter_map Either.find_left
    (walk ~current ~baseline ~det_threshold_pct ~rate_threshold_pct)

let regressed vs = List.exists (fun v -> v.v_regressed) vs

(* Surfacing what [compare_docs] skipped keeps a quiet comparison from
   being mistaken for a passing one.  The thresholds only grade the
   verdicts, which are dropped here. *)
let missing_in_baseline ~current ~baseline =
  List.filter_map Either.find_right
    (walk ~current ~baseline ~det_threshold_pct:0.0 ~rate_threshold_pct:None)

let pp_verdicts ppf vs =
  (* values span cycles (10^6) down to joules/dispatch (10^-7) *)
  let fnum x =
    if x = 0.0 || Float.abs x >= 0.1 then Format.sprintf "%.1f" x
    else Format.sprintf "%.3g" x
  in
  Format.fprintf ppf "%-22s %-16s %14s %14s %9s  %s@." "metric" "mode" "old"
    "new" "change" "status";
  List.iter
    (fun v ->
      Format.fprintf ppf "%-22s %-16s %14s %14s %+8.1f%%  %s@." v.v_metric
        v.v_mode (fnum v.v_old) (fnum v.v_new) v.v_change_pct
        (if v.v_regressed then "REGRESSED"
         else if v.v_gating then "ok"
         else "info"))
    vs
