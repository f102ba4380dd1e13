(* amulet bench — statistical gateheavy benchmark runner.

   Runs the per-mode benchmark with warmup + N trials, prints the
   median/MAD table with dispatch-latency percentiles and energy per
   dispatch, optionally writes a schema-v2 BENCH_*.json snapshot, and
   optionally compares against a baseline snapshot with noise-aware
   thresholds, exiting 1 on regression. *)

module Iso = Amulet_cc.Isolation
module Schema = Amulet_bench_core.Schema
module Stats = Amulet_bench_core.Stats
module Runner = Amulet_bench_core.Runner

let read_baseline path =
  match Schema.read_file path with
  | Ok doc -> doc
  | Error msg ->
    Cli.usage "cannot read %s: %s%s" path msg
      (if Sys.file_exists path then ""
       else
         Printf.sprintf
           "\nhint: record a baseline first with: amulet bench run --quick -o %s"
           path)

let write_snapshot out doc =
  Option.iter
    (fun path ->
      Schema.write_file path doc;
      Format.printf "wrote %s (schema %d)@." path doc.Schema.d_schema)
    out

(* true on regression *)
let compare_and_report ~path ~current ~baseline ~threshold ~rate_threshold =
  let verdicts =
    Schema.compare_docs ~current ~baseline ~det_threshold_pct:threshold
      ~rate_threshold_pct:rate_threshold
  in
  let skipped = Schema.missing_in_baseline ~current ~baseline in
  if verdicts = [] then
    Cli.usage
      "%s has no metric in common with the current run — nothing was \
       compared.%s"
      path
      (String.concat "" (List.map (( ^ ) "\n  not in baseline: ") skipped));
  Format.printf "%a" Schema.pp_verdicts verdicts;
  if skipped <> [] then
    Format.printf "not gated (absent from baseline): %s@."
      (String.concat ", " skipped);
  if Schema.regressed verdicts then begin
    Format.printf "REGRESSION: at least one gated metric exceeded %.1f%%@."
      threshold;
    true
  end
  else begin
    Format.printf "no regression (deterministic threshold %.1f%%%s)@."
      threshold
      (match rate_threshold with
      | Some r -> Format.asprintf ", rate threshold %.1f%%" r
      | None -> ", throughput informational");
    false
  end

let run_bench quick trials dispatches warmup modes out compare threshold
    rate_threshold () =
  let modes = if modes = [] then Iso.all else modes in
  let doc, _runs = Runner.run ~modes ?trials ?dispatches ?warmup ~quick () in
  Format.printf "%a" Runner.pp_doc doc;
  write_snapshot out doc;
  let regressed =
    match compare with
    | None -> false
    | Some path ->
      let baseline = read_baseline path in
      Format.printf "@.compare vs %s (schema %d):@." path
        baseline.Schema.d_schema;
      compare_and_report ~path ~current:doc ~baseline ~threshold
        ~rate_threshold
  in
  if regressed then 1 else 0

(* speedup: gate the hooks-off (predecoded fast path) throughput
   against a committed baseline snapshot.  The floor is a ratio, not a
   noise threshold: the fast path must stay at least MIN_RATIO times
   faster than the baseline's throughput for the same mode.  A
   pre-predecode baseline carries only armed rows, so the baseline row
   is the mode's hooks-off row when present and the armed row
   otherwise. *)

let find_row doc name =
  List.find_opt
    (fun r -> String.equal r.Schema.m_mode name)
    doc.Schema.d_modes

let row_median r = r.Schema.m_rate.Schema.r_summary.Stats.median

let speedup baseline_path min_ratio quick trials dispatches warmup modes out
    () =
  let modes = if modes = [] then [ Iso.No_isolation ] else modes in
  let baseline = read_baseline baseline_path in
  let doc, _runs =
    Runner.run_speedup ~modes ?trials ?dispatches ?warmup ~quick ()
  in
  Format.printf "%a" Runner.pp_doc doc;
  write_snapshot out doc;
  let ok_mode mode =
    let name = Iso.name mode in
    let fast_name = name ^ Runner.hooks_off_suffix in
    let current =
      match find_row doc fast_name with
      | Some r -> row_median r
      | None -> Cli.usage "run produced no %S row" fast_name
    in
    let base_row =
      match find_row baseline fast_name with
      | Some r -> r
      | None -> (
        match find_row baseline name with
        | Some r -> r
        | None ->
          Cli.usage "baseline %s has no %S or %S row" baseline_path fast_name
            name)
    in
    let base = row_median base_row in
    let ratio = if base > 0.0 then current /. base else infinity in
    Format.printf
      "%-28s %12.4e cyc/s  vs baseline %-24s %12.4e  ->  %6.1fx (floor %.1fx)@."
      fast_name current base_row.Schema.m_mode base ratio min_ratio;
    ratio >= min_ratio
  in
  let verdicts = List.map ok_mode modes in
  if List.exists not verdicts then begin
    Format.printf
      "SPEEDUP FLOOR VIOLATED: hooks-off throughput under %.1fx the baseline@."
      min_ratio;
    1
  end
  else begin
    Format.printf "speedup floor holds (>= %.1fx baseline)@." min_ratio;
    0
  end

let diff new_path base_path threshold rate_threshold () =
  let current = read_baseline new_path in
  let baseline = read_baseline base_path in
  if
    compare_and_report ~path:base_path ~current ~baseline ~threshold
      ~rate_threshold
  then 1
  else 0

(* options *)

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Quick run: 3 trials x 300 dispatches per mode.")

let trials =
  Arg.(
    value
    & opt (some int) None
    & info [ "trials" ] ~docv:"N" ~doc:"Trials per mode (override).")

let dispatches =
  Arg.(
    value
    & opt (some int) None
    & info [ "dispatches" ] ~docv:"N" ~doc:"Dispatches per trial (override).")

let warmup =
  Arg.(
    value
    & opt (some int) None
    & info [ "warmup" ] ~docv:"N" ~doc:"Warmup dispatches before measuring.")

let modes ~default =
  Cli.modes
    ~doc:
      (Printf.sprintf "Isolation mode to benchmark (repeatable; default %s)."
         default)

let out =
  Cli.out ~names:[ "o"; "out" ]
    ~doc:"Write the schema-v2 snapshot JSON to $(docv)." ()

let compare_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "compare" ] ~docv:"BASELINE"
        ~doc:
          "Compare against a baseline BENCH_*.json (schema 2); exit 1 on \
           regression.")

let threshold =
  Arg.(
    value & opt float 10.0
    & info [ "threshold" ] ~docv:"PCT"
        ~doc:
          "Gating threshold for deterministic simulated metrics \
           (cycles/dispatch, latency p99, energy, gate costs).")

let rate_threshold =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate-threshold" ] ~docv:"PCT"
        ~doc:
          "Also gate host throughput at $(docv) percent; a drop must \
           additionally exceed 3 robust sigmas of trial noise to count. \
           Without this flag throughput rows are informational.")

let run_term =
  Term.(
    const run_bench $ quick $ trials $ dispatches $ warmup
    $ modes ~default:"all" $ out $ compare_opt $ threshold $ rate_threshold)

let diff_term =
  let new_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NEW" ~doc:"Current snapshot JSON.")
  in
  let base_path =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline snapshot JSON (schema 2).")
  in
  Term.(const diff $ new_path $ base_path $ threshold $ rate_threshold)

let speedup_term =
  let baseline =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"BASELINE"
          ~doc:
            "Committed baseline BENCH_*.json; the hooks-off run must beat \
             its per-mode throughput by the floor ratio.")
  in
  let min_ratio =
    Arg.(
      value & opt float 5.0
      & info [ "min-ratio" ] ~docv:"X"
          ~doc:
            "Fail (exit 1) if hooks-off throughput < $(docv) times the \
             baseline's.")
  in
  Term.(
    const speedup $ baseline $ min_ratio $ quick $ trials $ dispatches
    $ warmup $ modes ~default:"no-isolation" $ out)

let cmd =
  Cmd.group
    ~default:Term.(const Cli.guard $ run_term)
    (Cmd.info "bench" ~exits:Cli.exits
       ~doc:
         "Statistical benchmark runner with schema-v2 snapshots and \
          noise-aware regression gating.")
    [
      Cli.cmd "run"
        ~doc:"Run the statistical gateheavy benchmark (default command)."
        run_term;
      Cli.cmd "diff"
        ~doc:"Compare two existing snapshots without running the benchmark."
        diff_term;
      Cli.cmd "speedup"
        ~doc:
          "Run the hooks-off (predecoded fast path) benchmark and enforce \
           the speedup floor against a committed baseline."
        speedup_term;
    ]
