(* Observability subsystem tests: JSON round-trips, trace sinks,
   profiler cycle-exactness, and fault forensics. *)

module Aft = Amulet_aft.Aft
module Os = Amulet_os
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json
module Profile = Amulet_obs.Profile
module Forensics = Amulet_obs.Forensics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected %S in:\n%s" what sub s

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "say \"hi\"\n\t\\done");
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("flags", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("empty", Json.Arr []) ]);
      ]
  in
  Alcotest.(check bool)
    "parse inverts print" true
    (Json.parse (Json.to_string v) = v);
  check_int "int member" (-42)
    (match Json.member "n" (Json.parse (Json.to_string v)) with
    | Some j -> Option.value ~default:0 (Json.to_int j)
    | None -> Alcotest.fail "missing n");
  (match Json.parse "{\"a\": 1} trailing" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted")

let sample_records =
  [
    Obs.Span
      {
        name = "handle_accel";
        cat = "dispatch";
        ts = 100;
        dur = 250;
        tid = 0;
        args = [ ("outcome", Obs.Vstr "ok"); ("reads", Obs.Vint 12) ];
      };
    Obs.Instant
      { name = "api_read_accel"; cat = "api"; ts = 180; tid = 0; args = [] };
    Obs.Counter { name = "queue_depth"; ts = 200; value = 3 };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      match Obs.record_of_json (Obs.json_of_record r) with
      | Some r' when r' = r -> ()
      | Some _ -> Alcotest.fail "record changed through json"
      | None -> Alcotest.fail "record dropped through json")
    sample_records

(* The same records must survive a full write-to-sink / parse-back trip
   in both trace formats. *)
let test_sink_roundtrip () =
  let via make_sink =
    let buf = Buffer.create 256 in
    let sink = make_sink buf in
    List.iter sink.Obs.output sample_records;
    sink.Obs.close ();
    Obs.records_of_string (Buffer.contents buf)
  in
  Alcotest.(check bool)
    "chrome round-trip" true
    (via Obs.chrome_buffer_sink = sample_records);
  Alcotest.(check bool)
    "jsonl round-trip" true
    (via Obs.jsonl_buffer_sink = sample_records)

(* ------------------------------------------------------------------ *)
(* Profiler *)

let counter_app =
  "int count = 0;\n\
   void handle_init(int arg) { api_subscribe(0, 10); }\n\
   void handle_accel(int arg) {\n\
  \  int buf[4];\n\
  \  int n = api_read_accel(buf, 4);\n\
  \  count += n;\n\
   }\n"

let run_profiled ~mode =
  let fw = Aft.build ~mode [ { Aft.name = "counter"; source = counter_app } ] in
  let obs = Obs.create () in
  Obs.enable_profile obs fw;
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  let p = match Obs.profile obs with Some p -> p | None -> assert false in
  (Profile.report p ~machine:k.Os.Kernel.machine, k)

let cat r c = try List.assoc c r.Profile.r_cats with Not_found -> 0

let test_profiler_exact_mpu () =
  let r, k = run_profiled ~mode:Iso.Mpu_assisted in
  check_int "classified = machine cycles" (M.cycles k.Os.Kernel.machine)
    r.Profile.r_total;
  check_int "report agrees with itself" r.Profile.r_machine r.Profile.r_total;
  check_bool "app code ran" true (cat r Profile.App_code > 0);
  check_bool "MPU reconfig cycles present" true (cat r Profile.Mpu_config > 0);
  check_bool "OS gate cycles present" true (cat r Profile.Os_gate > 0);
  let app = List.assoc "counter" (List.map (fun a -> (a.Profile.ar_app, a)) r.Profile.r_apps) in
  check_bool "per-handler cycles attributed" true
    (List.mem_assoc "handle_accel" app.Profile.ar_handlers)

let test_profiler_no_isolation_has_no_guards () =
  let r, k = run_profiled ~mode:Iso.No_isolation in
  check_int "classified = machine cycles" (M.cycles k.Os.Kernel.machine)
    r.Profile.r_total;
  check_int "no bounds guards" 0 (cat r Profile.Guard);
  check_int "no MPU reconfig" 0 (cat r Profile.Mpu_config)

(* ------------------------------------------------------------------ *)
(* Aggregation: sharding a record stream over k aggregates and merging
   must reproduce the single-aggregate result exactly *)

module Agg = Amulet_obs.Agg
module Hist = Amulet_obs.Hist

let aggregate records =
  let agg = Agg.create () in
  List.iter (Agg.add agg) records;
  agg

let collect_records ~mode =
  let fw = Aft.build ~mode [ { Aft.name = "counter"; source = counter_app } ] in
  let obs = Obs.create () in
  let acc = ref [] in
  Obs.add_sink obs { Obs.output = (fun r -> acc := r :: !acc); close = ignore };
  Obs.enable_profile obs fw;
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  Obs.close obs;
  List.rev !acc

let test_agg_partition_merge () =
  let records = collect_records ~mode:Iso.Mpu_assisted in
  check_bool "run produced records" true (List.length records > 50);
  let whole = aggregate records in
  let shards = Array.init 3 (fun _ -> Agg.create ()) in
  List.iteri (fun i r -> Agg.add shards.(i mod 3) r) records;
  let merged =
    Array.fold_left (fun acc a -> Agg.merge acc a) (Agg.create ()) shards
  in
  check_int "record count" (Agg.records whole) (Agg.records merged);
  Alcotest.(check (option (pair int int)))
    "time range" (Agg.time_range whole) (Agg.time_range merged);
  let keys a = List.map fst (Agg.spans a) in
  Alcotest.(check (list (pair string string)))
    "span keys" (keys whole) (keys merged);
  List.iter2
    (fun (k, hw) (_, hm) ->
      if not (Hist.equal hw hm) then
        Alcotest.failf "span %s/%s histogram differs after merge" (fst k)
          (snd k))
    (Agg.spans whole) (Agg.spans merged);
  List.iter2
    (fun (n, (cw : Agg.counter)) (_, (cm : Agg.counter)) ->
      check_bool (n ^ " counter hist") true (Hist.equal cw.Agg.c_hist cm.Agg.c_hist);
      check_int (n ^ " last value") cw.Agg.c_last cm.Agg.c_last;
      check_int (n ^ " max value") cw.Agg.c_max cm.Agg.c_max)
    (Agg.counters whole) (Agg.counters merged);
  Alcotest.(check (list (pair (pair string string) int)))
    "instants" (Agg.instants whole) (Agg.instants merged)

(* the percentile a merged aggregate reports must equal the
   single-aggregate ground truth for the same underlying records *)
let test_agg_percentiles_survive_merge () =
  let records = collect_records ~mode:Iso.Software_only in
  let whole = aggregate records in
  let a = Agg.create () and b = Agg.create () in
  List.iteri (fun i r -> Agg.add (if i mod 2 = 0 then a else b) r) records;
  let merged = Agg.merge a b in
  List.iter
    (fun ((cat, name), h) ->
      let h' =
        match Agg.span_hist merged ~cat ~name with
        | Some h' -> h'
        | None -> Alcotest.failf "span %s/%s lost in merge" cat name
      in
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "%s/%s p%.0f" cat name (q *. 100.0))
            (Hist.quantile h q) (Hist.quantile h' q))
        [ 0.5; 0.9; 0.99 ])
    (Agg.spans whole)

(* profile counters emitted at dispatch boundaries reach the sink and
   their final values match the profiler's own totals *)
let test_agg_profile_counters () =
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted
      [ { Aft.name = "counter"; source = counter_app } ]
  in
  let obs = Obs.create () in
  let agg = Agg.create () in
  Obs.add_sink obs (Agg.sink agg);
  Obs.enable_profile obs fw;
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  Obs.close obs;
  let p = match Obs.profile obs with Some p -> p | None -> assert false in
  List.iter
    (fun (c, total) ->
      match Agg.counter agg (Profile.counter_name c) with
      | Some st ->
        check_int (Profile.category_slug c ^ " final counter") total
          st.Agg.c_last
      | None ->
        Alcotest.failf "no %s counter in trace" (Profile.category_slug c))
    (Profile.totals p)

(* [Agg.of_channel] over [text] written to a file: the aggregate, or
   the message of the located parse error it raised. *)
let agg_of_text text =
  let path = Filename.temp_file "trace" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      In_channel.with_open_bin path (fun ic ->
          match Agg.of_channel ic with
          | agg -> Ok agg
          | exception Json.Parse_error msg -> Error msg))

let jsonl_text records =
  let buf = Buffer.create 4096 in
  let sink = Obs.jsonl_buffer_sink buf in
  List.iter sink.Obs.output records;
  Buffer.contents buf

let chrome_text records =
  let buf = Buffer.create 4096 in
  let sink = Obs.chrome_buffer_sink buf in
  List.iter sink.Obs.output records;
  sink.Obs.close ();
  Buffer.contents buf

(* A JSONL trace whose line 40 was cut short: the streaming reader
   must name that line, not just report trailing garbage. *)
let test_agg_truncated_jsonl_line () =
  let records = collect_records ~mode:Iso.Mpu_assisted in
  check_bool "enough records" true (List.length records > 60);
  let lines = String.split_on_char '\n' (jsonl_text records) in
  let cut =
    List.mapi
      (fun i l -> if i = 39 then String.sub l 0 (String.length l / 2) else l)
      lines
  in
  match agg_of_text (String.concat "\n" cut) with
  | Ok _ -> Alcotest.fail "truncated line accepted"
  | Error msg -> check_contains "located error" "line 40:" msg

(* Reader totality: a trace with 1-3 random byte edits, truncations or
   deletions either aggregates or is rejected with a [Json.Parse_error]
   that names a line or an offset; no other exception escapes. *)

type edit = Set of int * char | Truncate of int | Delete of int * int

let apply_edit text = function
  | _ when text = "" -> text
  | Set (k, c) ->
    let b = Bytes.of_string text in
    Bytes.set b (k mod Bytes.length b) c;
    Bytes.to_string b
  | Truncate k -> String.sub text 0 (k mod String.length text)
  | Delete (k, len) ->
    let n = String.length text in
    let k = k mod n in
    let len = min len (n - k) in
    String.sub text 0 k ^ String.sub text (k + len) (n - k - len)

let located msg =
  let n = String.length msg in
  let digit_after sub =
    let m = String.length sub in
    let rec go i =
      i + m < n
      && ((String.sub msg i m = sub && msg.[i + m] >= '0' && msg.[i + m] <= '9')
         || go (i + 1))
    in
    go 0
  in
  digit_after "line " || digit_after "offset "

let mutated_traces_read ~format text =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 3)
        (oneof
           [
             map2 (fun k c -> Set (k, c)) nat printable;
             map (fun k -> Truncate k) nat;
             map2 (fun k len -> Delete (k, len)) nat (int_range 1 16);
           ]))
  in
  let print edits =
    String.concat ", "
      (List.map
         (function
           | Set (k, c) -> Printf.sprintf "byte %d := %C" k c
           | Truncate k -> Printf.sprintf "truncate at %d" k
           | Delete (k, len) -> Printf.sprintf "delete %d at %d" len k)
         edits)
  in
  QCheck2.Test.make ~count:200 ~print
    ~name:("mutated " ^ format ^ " traces read or are located")
    gen
    (fun edits ->
      match agg_of_text (List.fold_left apply_edit text edits) with
      | Ok _ -> true
      | Error msg -> located msg || QCheck2.Test.fail_reportf "unlocated: %s" msg)

(* ------------------------------------------------------------------ *)
(* Zero cost: tracing and telemetry are host-side, so a run's
   simulated cycles are the same bare, with a sinkless context, fully
   traced (JSONL sink + profiler), and aggregated (Agg sink +
   profiler, which also arms the per-dispatch energy counters).  The
   profiler accounts for every cycle and the energy counters agree
   with it. *)

let pedometer_kernel ?obs ?(profile = false) () =
  let module Apps = Amulet_apps.Suite in
  let mode = Iso.Mpu_assisted in
  let fw = Aft.build ~mode [ Apps.spec_for mode (Apps.find "pedometer") ] in
  if profile then Option.iter (fun obs -> Obs.enable_profile obs fw) obs;
  Os.Kernel.create ~scenario:Os.Sensors.Walking ?obs fw

let run_5s k =
  let _ = Os.Kernel.run_for_ms k 5_000 in
  M.cycles k.Os.Kernel.machine

let profile_report obs k =
  match Obs.profile obs with
  | Some p -> Profile.report p ~machine:k.Os.Kernel.machine
  | None -> Alcotest.fail "no profiler"

let test_tracing_zero_cost () =
  let bare = run_5s (pedometer_kernel ()) in
  let plain = Obs.create () in
  let attached = run_5s (pedometer_kernel ~obs:plain ()) in
  Obs.close plain;
  let traced_obs = Obs.create () in
  let buf = Buffer.create 65536 in
  Obs.add_sink traced_obs (Obs.jsonl_buffer_sink buf);
  let traced_k = pedometer_kernel ~obs:traced_obs ~profile:true () in
  let traced = run_5s traced_k in
  Obs.close traced_obs;
  let agg_obs = Obs.create () in
  let agg = Agg.create () in
  Obs.add_sink agg_obs (Agg.sink agg);
  let agg_k = pedometer_kernel ~obs:agg_obs ~profile:true () in
  let aggregated = run_5s agg_k in
  Obs.close agg_obs;
  check_int "sinkless context" bare attached;
  check_int "fully traced" bare traced;
  check_int "agg sink + energy counters" bare aggregated;
  check_bool "trace captured records" true (Buffer.length buf > 0);
  let r = profile_report traced_obs traced_k in
  check_int "profiler classifies every cycle" r.Profile.r_machine
    r.Profile.r_total;
  Alcotest.(check string)
    "agg sink leaves the profiler report byte-identical"
    (Format.asprintf "%a" Profile.pp_report r)
    (Format.asprintf "%a" Profile.pp_report (profile_report agg_obs agg_k));
  check_bool "agg saw dispatch spans" true (Agg.spans agg <> []);
  let p = match Obs.profile agg_obs with Some p -> p | None -> assert false in
  match Agg.counter agg (Profile.counter_name Profile.App_code) with
  | Some c ->
    check_int "energy counter matches the profiler"
      (List.assoc Profile.App_code (Profile.totals p))
      c.Agg.c_last
  | None -> Alcotest.fail "no per-class energy counters in the trace"

(* ------------------------------------------------------------------ *)
(* Forensics *)

let victim_app =
  "int secret = 12345;\n\
   void handle_init(int arg) { api_subscribe(1, 5); }\n\
   void handle_ppg(int arg) { secret += 1; }\n"

let evil_src target_addr =
  Printf.sprintf
    "void handle_init(int arg) { api_set_timer(100); }\n\
     void handle_timer(int arg) {\n\
    \  int *p = (int*)0x%04X;\n\
    \  *p = 666;\n\
     }\n"
    target_addr

let test_forensics_on_fault () =
  (* evil writes into the victim's data region; under MPU-assisted
     isolation the dispatch faults and the kernel snapshots forensics *)
  let specs target =
    [ { Aft.name = "victim"; source = victim_app };
      { Aft.name = "evil"; source = evil_src target } ]
  in
  let probe = Aft.build ~mode:Iso.Mpu_assisted (specs 0xBEEE) in
  let secret_addr =
    Amulet_link.Image.symbol probe.Aft.fw_image "victim$secret"
  in
  let fw = Aft.build ~mode:Iso.Mpu_assisted (specs secret_addr) in
  let obs = Obs.create () in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let _ = Os.Kernel.run_for_ms k 1_000 in
  let evil = Os.Kernel.app_by_name k "evil" in
  check_bool "evil faulted" true (evil.Os.Kernel.fault_count > 0);
  match evil.Os.Kernel.last_forensics with
  | None -> Alcotest.fail "no forensics captured"
  | Some dump ->
    check_contains "header" "=== fault forensics ===" dump;
    check_contains "registers" "registers:" dump;
    check_contains "mpu state" "mpu:" dump;
    check_contains "ring" "trace events (oldest first):" dump;
    (* the victim keeps incrementing its secret; what matters is that
       evil's 666 never landed *)
    check_bool "victim's secret intact" true
      (M.mem_checked_read k.Os.Kernel.machine Amulet_mcu.Word.W16 secret_addr
       >= 12345)

(* The owner annotation, on a synthetic MPU violation aimed at a known
   region. *)
let test_forensics_owner () =
  let fw =
    Aft.build ~mode:Iso.Mpu_assisted
      [ { Aft.name = "victim"; source = victim_app } ]
  in
  let obs = Obs.create () in
  let k = Os.Kernel.create ~scenario:Os.Sensors.Walking ~obs fw in
  let secret_addr = Amulet_link.Image.symbol fw.Aft.fw_image "victim$secret" in
  let stop =
    M.Faulted
      (M.Mpu_violation
         {
           access = Amulet_mcu.Mpu.Dwrite;
           addr = secret_addr;
           pc = 0x4400;
           segment = Amulet_mcu.Mpu.Seg2;
         })
  in
  let dump =
    Forensics.report ~fw ~ring:(Obs.ring obs) ~stop k.Os.Kernel.machine
  in
  check_contains "owner" "owned by app 'victim' data/stack" dump;
  check_contains "address" (Printf.sprintf "%04X" secret_addr) dump

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "sink round-trip" `Quick test_sink_roundtrip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "mpu mode exact" `Quick test_profiler_exact_mpu;
          Alcotest.test_case "no-isolation has no guards" `Quick
            test_profiler_no_isolation_has_no_guards;
        ] );
      ( "agg",
        [
          Alcotest.test_case "partition+merge = whole" `Quick
            test_agg_partition_merge;
          Alcotest.test_case "percentiles survive merge" `Quick
            test_agg_percentiles_survive_merge;
          Alcotest.test_case "profile counters in trace" `Quick
            test_agg_profile_counters;
          Alcotest.test_case "truncated JSONL line located" `Quick
            test_agg_truncated_jsonl_line;
        ] );
      ( "readers",
        (let records = collect_records ~mode:Iso.Mpu_assisted in
         List.map
           (fun (format, text) ->
             QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0x7ACE |])
               (mutated_traces_read ~format (text records)))
           [ ("JSONL", jsonl_text); ("Chrome", chrome_text) ]) );
      ( "zero-cost",
        [
          Alcotest.test_case "tracing and telemetry cost zero cycles" `Quick
            test_tracing_zero_cost;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "captured on fault" `Quick test_forensics_on_fault;
          Alcotest.test_case "owner annotation" `Quick test_forensics_owner;
        ] );
    ]
