(* The per-layer ledger: every number the traced run reports, computed
   from the recorded spans plus the deterministic model statistics.

   Times are span self times (duration minus children); every span
   that yields a per-operation time here is a leaf, so self time and
   duration agree for them. *)

module Iso = Amulet_cc.Isolation
module Hist = Amulet_obs.Hist
module Fleet = Amulet_fleet_core.Fleet
module Paper = Amulet_iso.Paper
module Experiments = Amulet_iso.Experiments

type metric = { name : string; unit_ : string; value : float }

let per_mode prefix = List.map (fun m -> prefix ^ "." ^ Workload.mode_slug m) Iso.all

let table1_ops = [ ("mem_access", Paper.Memory_access); ("ctx_switch", Paper.Context_switch) ]

(* Every per-layer name with its unit, in report order.  BENCHMARK.json
   declares exactly these (checked by test_perfbench). *)
let names =
  let u unit_ names = List.map (fun n -> (n, unit_)) names in
  List.concat
    [
      u "ms" [ "fleet.parse_ms" ];
      u "ms" (per_mode "aft.build_ms");
      u "us" [ "os.create_us" ];
      u "kwords" [ "gc.create_kwords" ];
      u "us" [ "fleet.traffic_us" ];
      u "ns" (per_mode "os.dispatch_ns_p50");
      u "ns" (per_mode "os.dispatch_ns_p99");
      u "ns" [ "os.no_handler_ns" ];
      u "share" [ "os.handled_share" ];
      u "ns" (per_mode "os.entry_ns");
      u "ns/kcycle" (per_mode "mcu.ns_per_kcycle");
      u "count" [ "mcu.blocks_per_device" ];
      u "us" [ "os.oracle_us"; "fleet.record_us" ];
      u "ms" [ "fleet.merge_ms" ];
      u "share" [ "fleet.sched.busy_share" ];
      u "ms" [ "fleet.sched.tail_ms" ];
      u "kwords" [ "gc.minor_kwords_per_device" ];
      u "words" [ "gc.minor_words_per_dispatch" ];
      u "count" [ "gc.major_collections" ];
      u "cycles" (per_mode "sim.cycles_per_dispatch");
      u "cycles" (per_mode "sim.latency_p99_cycles");
      u "cycles"
        (List.concat_map (fun (op, _) -> per_mode ("sim.table1." ^ op)) table1_ops);
      u "pct"
        (List.concat_map
           (fun (op, _) -> per_mode ("sim.table1_err_pct." ^ op))
           table1_ops);
    ]

(* Weighted least-squares line through (x, y) points. *)
type fit = {
  mutable n : float;
  mutable sx : float;
  mutable sy : float;
  mutable sxx : float;
  mutable sxy : float;
}

let fit_add f ~w x y =
  f.n <- f.n +. w;
  f.sx <- f.sx +. (w *. x);
  f.sy <- f.sy +. (w *. y);
  f.sxx <- f.sxx +. (w *. x *. x);
  f.sxy <- f.sxy +. (w *. x *. y)

(* (intercept, slope), or [None] when x never varied *)
let fit_line f =
  let d = (f.n *. f.sxx) -. (f.sx *. f.sx) in
  if d <= 1e-9 *. f.n *. f.sxx then None
  else
    let slope = ((f.n *. f.sxy) -. (f.sx *. f.sy)) /. d in
    Some ((f.sy -. (slope *. f.sx)) /. f.n, slope)

(* Handler lengths seen fewer times than this stay out of the fit. *)
let min_group = 5

(* Running sum and count of one quantity. *)
type acc = { mutable total : float; mutable count : int }

let acc () = { total = 0.; count = 0 }

let add a v =
  a.total <- a.total +. v;
  a.count <- a.count + 1

let mean a = if a.count = 0 then None else Some (a.total /. float_of_int a.count)

let nmodes = List.length Iso.all

(* The ledger, accumulated one set-up buffer or traced replay at a
   time so spans need not outlive the replay that recorded them. *)
type t = {
  parse : float list ref;
  build : float list array;
  create : acc;
  create_words : acc;
  traffic : acc;  (** total only: divided by devices *)
  oracle : acc;  (** total only: divided by devices *)
  record : acc;
  dev_words : acc;
  no_handler : acc;
  pop_words : acc;
  handled : Hist.t array;  (** host ns per handled dispatch, by mode *)
  groups : (int, Hist.t) Hashtbl.t array;
      (** by mode: simulated cycles -> host ns of those dispatches *)
  mutable devices : int;
  mutable blocks : int;
  merge : float list ref;
  busy : float list ref;
  tail : float list ref;
  self : (string, int * int) Hashtbl.t;  (** layer -> spans, self ns *)
}

let create () =
  {
    parse = ref [];
    build = Array.make nmodes [];
    create = acc ();
    create_words = acc ();
    traffic = acc ();
    oracle = acc ();
    record = acc ();
    dev_words = acc ();
    no_handler = acc ();
    pop_words = acc ();
    handled = Array.init nmodes (fun _ -> Hist.create ());
    groups = Array.init nmodes (fun _ -> Hashtbl.create 64);
    devices = 0;
    blocks = 0;
    merge = ref [];
    busy = ref [];
    tail = ref [];
    self = Hashtbl.create 16;
  }

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

(* Fold one buffer's spans in; returns the merge time it held. *)
let add_buffer t b =
  let self = Spans.self_times b in
  let merge_ns = ref 0 in
  Spans.iter b (fun i ->
      let d = self.(i) in
      let name = Spans.layer_name b.Spans.layer.(i) in
      let n, s = Option.value ~default:(0, 0) (Hashtbl.find_opt t.self name) in
      Hashtbl.replace t.self name (n + 1, s + d);
      match b.Spans.layer.(i) with
      | Spans.Parse -> t.parse := ms d :: !(t.parse)
      | Spans.Build ->
        let m = b.Spans.tag.(i) in
        t.build.(m) <- ms d :: t.build.(m)
      | Spans.Create ->
        add t.create (us d);
        add t.create_words (float_of_int b.Spans.words.(i) /. 1e3)
      | Spans.Traffic -> add t.traffic (us d)
      | Spans.Os_intact | Spans.Liveness -> add t.oracle (us d)
      | Spans.Record -> add t.record (us d)
      | Spans.Merge -> merge_ns := !merge_ns + d
      | Spans.Device -> add t.dev_words (float_of_int b.Spans.words.(i) /. 1e3)
      | Spans.Dispatch ->
        add t.pop_words (float_of_int b.Spans.words.(i));
        if b.Spans.aux.(i) = Spans.outcome_no_handler then
          add t.no_handler (float_of_int d)
        else begin
          let m = b.Spans.tag.(i) in
          Hist.record t.handled.(m) d;
          let x = b.Spans.cycles.(i) in
          let h =
            match Hashtbl.find_opt t.groups.(m) x with
            | Some h -> h
            | None ->
              let h = Hist.create () in
              Hashtbl.replace t.groups.(m) x h;
              h
          in
          Hist.record h d
        end
      | Spans.Run | Spans.Worker -> ());
  !merge_ns

let add_setup t b = ignore (add_buffer t b)

let add_run t (r : Drive.run) =
  Array.iter
    (fun (_, (e : Drive.extra)) ->
      t.devices <- t.devices + 1;
      t.blocks <- t.blocks + e.Drive.blocks)
    r.Drive.results;
  let merge_ns = List.fold_left (fun a b -> a + add_buffer t b) 0 r.Drive.bufs in
  t.merge := ms merge_ns :: !(t.merge);
  let jobs = float_of_int (List.length r.Drive.worker_busy_ns) in
  t.busy :=
    float_of_int (List.fold_left ( + ) 0 r.Drive.worker_busy_ns)
    /. (jobs *. float_of_int r.Drive.wall_ns)
    :: !(t.busy);
  let lasts = r.Drive.worker_last_ns in
  t.tail :=
    ms (List.fold_left max min_int lasts - List.fold_left min max_int lasts)
    :: !(t.tail)

(* Per-entry cost and per-cycle cost of handled dispatches in one
   mode: a least-squares line through the median host ns of each
   handler length, weighted by how often that length ran.  Medians
   keep one-off costs (first-run predecode, a GC slice) from dragging
   the line. *)
let entry_and_slope groups =
  let f = { n = 0.; sx = 0.; sy = 0.; sxx = 0.; sxy = 0. } in
  Hashtbl.iter
    (fun x h ->
      let c = Hist.count h in
      if c >= min_group then
        fit_add f ~w:(float_of_int c) (float_of_int x)
          (float_of_int (Hist.quantile h 0.5)))
    groups;
  fit_line f

(* Model-side inputs the spans do not hold. *)
type model = {
  baseline : Fleet.summary;  (** untraced trial: model statistics *)
  major_collections : int;  (** during the untraced trial *)
  table1 : Experiments.table1_row list;
}

(* Every per-layer metric, in [names] order, and the names the
   workload never reached (reported as 0). *)
let finish t (c : model) =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let put name v = Hashtbl.replace tbl name v in
  let set name v = Option.iter (put name) v in
  let median xs =
    if xs = [] then None
    else Some (Amulet_bench_core.Stats.median (Array.of_list xs))
  in
  let per_device a =
    if t.devices = 0 then None else Some (a.total /. float_of_int t.devices)
  in
  set "fleet.parse_ms" (median !(t.parse));
  List.iteri (fun m n -> set n (median t.build.(m))) (per_mode "aft.build_ms");
  set "os.create_us" (mean t.create);
  set "gc.create_kwords" (mean t.create_words);
  set "fleet.traffic_us" (per_device t.traffic);
  List.iteri
    (fun m (p50, p99) ->
      let h = t.handled.(m) in
      if not (Hist.is_empty h) then begin
        put p50 (float_of_int (Hist.quantile h 0.5));
        put p99 (float_of_int (Hist.quantile h 0.99))
      end)
    (List.combine (per_mode "os.dispatch_ns_p50") (per_mode "os.dispatch_ns_p99"));
  set "os.no_handler_ns" (mean t.no_handler);
  let handled = Array.fold_left (fun a h -> a + Hist.count h) 0 t.handled in
  let pops = handled + t.no_handler.count in
  if pops > 0 then put "os.handled_share" (float_of_int handled /. float_of_int pops);
  List.iteri
    (fun m (entry, slope) ->
      match entry_and_slope t.groups.(m) with
      | Some (a, b) ->
        put entry a;
        put slope (b *. 1000.)
      | None -> ())
    (List.combine (per_mode "os.entry_ns") (per_mode "mcu.ns_per_kcycle"));
  if t.devices > 0 then
    put "mcu.blocks_per_device" (float_of_int t.blocks /. float_of_int t.devices);
  set "os.oracle_us" (per_device t.oracle);
  set "fleet.record_us" (mean t.record);
  set "fleet.merge_ms" (median !(t.merge));
  set "fleet.sched.busy_share" (median !(t.busy));
  set "fleet.sched.tail_ms" (median !(t.tail));
  set "gc.minor_kwords_per_device" (mean t.dev_words);
  set "gc.minor_words_per_dispatch" (mean t.pop_words);
  put "gc.major_collections" (float_of_int c.major_collections);
  (* model statistics, deterministic *)
  List.iter
    (fun (a : Fleet.mode_agg) ->
      let slug = Workload.mode_slug a.Fleet.ma_mode in
      if not (Hist.is_empty a.Fleet.ma_dispatch) then begin
        put ("sim.cycles_per_dispatch." ^ slug)
          (float_of_int (Hist.sum a.Fleet.ma_dispatch)
          /. float_of_int (Hist.count a.Fleet.ma_dispatch));
        put ("sim.latency_p99_cycles." ^ slug)
          (float_of_int (Hist.quantile a.Fleet.ma_latency 0.99))
      end)
    c.baseline.Fleet.fs_modes;
  List.iter
    (fun (row : Experiments.table1_row) ->
      let slug = Workload.mode_slug row.Experiments.t1_mode in
      List.iter
        (fun (op, pop) ->
          let sim =
            match pop with
            | Paper.Memory_access -> row.Experiments.t1_mem_access
            | Paper.Context_switch -> row.Experiments.t1_ctx_switch
          in
          let paper = float_of_int (Paper.table1 row.Experiments.t1_mode pop) in
          put (Printf.sprintf "sim.table1.%s.%s" op slug) sim;
          put
            (Printf.sprintf "sim.table1_err_pct.%s.%s" op slug)
            (100. *. Float.abs (sim -. paper) /. paper))
        table1_ops)
    c.table1;
  let metrics =
    List.map
      (fun (name, unit_) ->
        { name; unit_; value = Option.value ~default:0. (Hashtbl.find_opt tbl name) })
      names
  in
  let missing =
    List.filter_map (fun (n, _) -> if Hashtbl.mem tbl n then None else Some n) names
  in
  (metrics, missing)

(* Self time per layer over everything folded in: the ledger's table
   form, for the detail record. *)
let self_times t =
  Hashtbl.fold (fun name (n, s) acc -> (name, n, s) :: acc) t.self []
  |> List.sort compare
