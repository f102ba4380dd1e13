(* amulet wcet: static WCET and worst-case-energy certifier.

   Builds a firmware from WearC sources (or suite app names), runs the
   binary WCET analysis (lib/analysis/wcet.ml) over every app section
   and converts each handler's cycle bound into worst-case weekly
   battery impact at an assumed dispatch rate, checked against the
   paper's 0.5 % overhead budget.  Handlers the analysis cannot bound
   are reported with their call-chain witness instead of a number.

   Exit status: 0 when every handler is bounded and every app is
   within budget, 1 otherwise (unless --allow-unbounded), 2 on
   unusable input. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft
module Lint = Amulet_analysis.Lint
module Cfi = Amulet_analysis.Cfi
module Wcet = Amulet_analysis.Wcet
module Energy = Amulet_arp.Energy
module J = Amulet_obs.Json

let seconds_per_week = 7.0 *. 24.0 *. 3600.0

(* budget comparison for one handler dispatched [rate] times a second,
   all week *)
let weekly_impact ~rate cycles =
  Energy.battery_impact_percent
    ~overhead_cycles_per_week:(float_of_int cycles *. rate *. seconds_per_week)

type handler_row = {
  row : Wcet.handler_bound;
  impact : float option;  (** None when unbounded *)
}

type app_row = {
  app : string;
  wcet : Wcet.t option;  (** None when CFI reconstruction failed *)
  rows : handler_row list;
  total_impact : float;  (** sum over bounded handlers *)
  all_bounded : bool;
}

let analyze_app ~image ~mode ~rate prefix =
  match Cfi.reconstruct ~image ~mode ~prefix with
  | Error _ ->
    { app = prefix; wcet = None; rows = []; total_impact = 0.0;
      all_bounded = false }
  | Ok cfg ->
    let w = Wcet.analyze ~image ~cfg in
    let rows =
      List.map
        (fun (h : Wcet.handler_bound) ->
          match h.Wcet.hb_total with
          | Wcet.Bounded c -> { row = h; impact = Some (weekly_impact ~rate c) }
          | Wcet.Unbounded _ -> { row = h; impact = None })
        w.Wcet.w_handlers
    in
    {
      app = prefix;
      wcet = Some w;
      rows;
      total_impact =
        List.fold_left
          (fun acc r -> acc +. Option.value ~default:0.0 r.impact)
          0.0 rows;
      all_bounded = List.for_all (fun r -> r.impact <> None) rows;
    }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let json_of_verdict = function
  | Wcet.Bounded c -> [ ("bounded", J.Bool true); ("cycles", J.Int c) ]
  | Wcet.Unbounded { reason; chain } ->
    [
      ("bounded", J.Bool false);
      ("reason", J.Str reason);
      ("chain", J.Arr (List.map (fun s -> J.Str s) chain));
    ]

let json_of_row budget (r : handler_row) =
  J.Obj
    ([ ("handler", J.Str r.row.Wcet.hb_handler) ]
    @ json_of_verdict r.row.Wcet.hb_total
    @ (match r.row.Wcet.hb_fn with
      | Wcet.Bounded c -> [ ("fn_cycles", J.Int c) ]
      | Wcet.Unbounded _ -> [])
    @ (match r.row.Wcet.hb_dispatch with
      | Wcet.Bounded c -> [ ("dispatch_cycles", J.Int c) ]
      | Wcet.Unbounded _ -> [])
    @
    match r.impact with
    | Some pct ->
      [
        ("weekly_impact_percent", J.Float pct);
        ("within_budget", J.Bool (pct <= budget));
      ]
    | None -> [])

let json_of_app budget (a : app_row) =
  J.Obj
    ([ ("name", J.Str a.app) ]
    @ (match a.wcet with
      | None -> [ ("error", J.Str "CFI reconstruction failed") ]
      | Some w ->
        [
          ("loops", J.Int w.Wcet.w_loops);
          ("bounded_loops", J.Int w.Wcet.w_bounded_loops);
        ])
    @ [
        ("handlers", J.Arr (List.map (json_of_row budget) a.rows));
        ("all_bounded", J.Bool a.all_bounded);
        ("weekly_impact_percent", J.Float a.total_impact);
        ("within_budget", J.Bool (a.total_impact <= budget));
      ])

let print_human ~mode ~rate ~budget apps =
  Format.printf "isolation mode: %s, dispatch rate %g Hz, budget %g%%@."
    (Iso.name mode) rate budget;
  List.iter
    (fun a ->
      (match a.wcet with
      | None ->
        Format.printf "%s: CFI reconstruction failed — nothing certified@."
          a.app
      | Some w ->
        Format.printf "%s: %d/%d loops bounded@." a.app
          w.Wcet.w_bounded_loops w.Wcet.w_loops);
      List.iter
        (fun r ->
          match (r.row.Wcet.hb_total, r.impact) with
          | Wcet.Bounded c, Some pct ->
            Format.printf
              "  %-16s %7d cycles  (fn %s + dispatch %s)  %.4f%% of weekly \
               battery%s@."
              r.row.Wcet.hb_handler c
              (match r.row.Wcet.hb_fn with
              | Wcet.Bounded c -> string_of_int c
              | Wcet.Unbounded _ -> "?")
              (match r.row.Wcet.hb_dispatch with
              | Wcet.Bounded c -> string_of_int c
              | Wcet.Unbounded _ -> "?")
              pct
              (if pct <= budget then "" else "  OVER BUDGET")
          | v, _ ->
            Format.printf "  %-16s %a@." r.row.Wcet.hb_handler Wcet.pp_verdict
              v)
        a.rows;
      if a.rows <> [] then
        Format.printf "  app worst case: %.4f%% of weekly battery (%s the \
                       %g%% budget)@."
          a.total_impact
          (if a.total_impact <= budget then "within" else "OVER")
          budget)
    apps

(* ------------------------------------------------------------------ *)

let run mode no_elide shadow rate budget format allow_unbounded apps () =
  let fw = Cli.build ~no_elide ~shadow mode apps in
  let image = fw.Aft.fw_image in
  let rows = List.map (analyze_app ~image ~mode ~rate) (Lint.apps_of image) in
  let ok =
    List.for_all
      (fun a ->
        a.wcet <> None
        && (allow_unbounded || a.all_bounded)
        && a.total_impact <= budget)
      rows
  in
  (match format with
  | `Human -> print_human ~mode ~rate ~budget rows
  | `Json ->
    print_string
      (J.to_string
         (J.Obj
            [
              ("mode", J.Str (Iso.name mode));
              ("rate_hz", J.Float rate);
              ("budget_percent", J.Float budget);
              ("apps", J.Arr (List.map (json_of_app budget) rows));
              ("ok", J.Bool ok);
            ])
      ^ "\n"));
  if ok then 0 else 1

open Cmdliner

let rate_arg =
  Arg.(
    value & opt float 1.0
    & info [ "rate" ] ~docv:"HZ"
        ~doc:
          "Assumed worst-case dispatch rate per handler in events per \
           second, for the battery-impact projection.")

let budget_arg =
  Arg.(
    value & opt float 0.5
    & info [ "budget" ] ~docv:"PCT"
        ~doc:
          "Weekly battery budget in percent an app's handlers may consume \
           (the paper bounds isolation overhead by 0.5%).")

let allow_unbounded_arg =
  Arg.(
    value & flag
    & info [ "allow-unbounded" ]
        ~doc:
          "Exit 0 even when some handler has no static bound (it is still \
           reported).")

let cmd =
  Cli.cmd "wcet"
    ~doc:"statically bound handler WCET and worst-case battery impact"
    Term.(
      const run $ Cli.mode $ Cli.no_elide $ Cli.shadow $ rate_arg
      $ budget_arg $ Cli.format $ allow_unbounded_arg $ Cli.apps)
