(* Tests of the benchmark itself: the metric names it emits are the
   ones BENCHMARK.json declares, a held-out seed runs clean, the
   workloads exercise what they claim, the committed reference
   aggregates reproduce, and span recording allocates nothing. *)

module Json = Amulet_obs.Json
open Perfbench

let root = ".."

let manifest () =
  Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)

let list_of key j =
  match Json.member key j with
  | Some (Json.Arr xs) -> xs
  | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" key

let str key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "BENCHMARK.json: entry without %s" key

let declared key = List.map (fun j -> (str "name" j, str "unit" j)) (list_of key (manifest ()))

let sorted l = List.sort compare l

let test_e2e_names () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sorted Harness.e2e_names) (sorted (declared "end_to_end"))

let test_layer_names () =
  Alcotest.(check (list (pair string string)))
    "per_layer" (sorted Ledger.names) (sorted (declared "per_layer"))

let test_workload_names () =
  Alcotest.(check (list string))
    "workloads"
    (sorted (List.map (fun w -> w.Workload.name) Workload.all))
    (sorted (List.map (str "name") (list_of "workloads" (manifest ()))))

let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  String.length s >= 1 && String.length s <= 64
  && String.for_all ok s
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)

let test_name_charset () =
  List.iter
    (fun (n, _) ->
      if not (valid_name n) then Alcotest.failf "metric name %S" n)
    (Harness.e2e_names @ Ledger.names)

(* The workloads at a size a unit test can afford. *)
let small (w : Workload.t) =
  match w.Workload.runner with
  | Workload.Fleet_run when w.Workload.name = "steady_day" ->
    { w with Workload.devices = 24; duration_ms = 400 }
  | Workload.Fleet_run -> { w with Workload.devices = 4; duration_ms = 1500 }
  | Workload.Gateheavy g ->
    { w with Workload.runner = Workload.Gateheavy { g with dispatches = 64 } }

let held_out_seed = 90210

let metric (r : Harness.result) name =
  match List.find_opt (fun m -> m.Harness.name = name) r.Harness.metrics with
  | Some m -> m.Harness.value
  | None -> Alcotest.failf "no metric %s" name

let test_held_out_seed w () =
  let r = Harness.run_e2e ~root (small w) ~seed:held_out_seed ~seconds:0.05 in
  Alcotest.(check bool) "correct" true r.Harness.correct;
  Alcotest.(check int) "failed" 0 r.Harness.failed;
  Alcotest.(check (float 0.)) "ok_share" 1.0 (metric r "ok_share");
  List.iter
    (fun (n, _) ->
      if not (metric r n > 0.) then Alcotest.failf "%s is not positive" n)
    Harness.e2e_names

let test_dispatch_storm_exercises () =
  let r =
    Harness.run_traced ~root (small Workload.dispatch_storm) ~seed:held_out_seed
      ~seconds:0.05
  in
  Alcotest.(check bool) "correct" true r.Harness.correct;
  let share = metric r "os.handled_share" in
  if not (share > 0. && share < 1.) then
    Alcotest.failf "os.handled_share = %g, want strictly in (0, 1)" share;
  if not (metric r "sim.latency_p99_cycles.mpu" > 0.) then
    Alcotest.fail "no queue latency: the queue never stood"

let test_reference_reproduces w () =
  let scenario =
    match Workload.load ~root w with Ok s -> s | Error e -> Alcotest.fail e
  in
  let _, json, mismatches =
    Drive.untraced w ~scenario ~seed:scenario.Amulet_fleet_core.Scenario.sc_seed
  in
  Alcotest.(check int) "button cycles" 0 mismatches;
  Alcotest.(check (option string)) "aggregate" (Some json)
    (Harness.read_reference ~root w)

let test_spans_allocate_nothing () =
  let b = Spans.create ~capacity:20_000 ~worker:0 () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let i = Spans.open_ b Spans.Dispatch ~parent:(-1) ~id:0 ~tag:0 in
    Spans.close b i
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 100. then Alcotest.failf "recording 10k spans allocated %g words" words;
  Array.iteri
    (fun i s -> if i < b.Spans.n && s < 0 then Alcotest.fail "negative self time")
    (Spans.self_times b)

let () =
  let per_workload name f =
    List.map
      (fun (w : Workload.t) -> Alcotest.test_case (name ^ " " ^ w.Workload.name) `Quick (f w))
      Workload.all
  in
  Alcotest.run "perfbench"
    [
      ( "manifest",
        [
          Alcotest.test_case "end-to-end names" `Quick test_e2e_names;
          Alcotest.test_case "per-layer names" `Quick test_layer_names;
          Alcotest.test_case "workload names" `Quick test_workload_names;
          Alcotest.test_case "name charset" `Quick test_name_charset;
        ] );
      ( "runs",
        per_workload "held-out seed" test_held_out_seed
        @ [ Alcotest.test_case "dispatch_storm exercises the queue" `Quick
              test_dispatch_storm_exercises ] );
      ("reference", per_workload "reproduces" test_reference_reproduces);
      ("spans", [ Alcotest.test_case "no allocation" `Quick test_spans_allocate_nothing ]);
    ]
