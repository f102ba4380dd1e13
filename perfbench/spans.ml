(* In-memory span recorder for the traced run.

   One buffer per worker domain, so recording takes no lock.  Spans are
   stored column-wise in int arrays: opening and closing a span
   allocates nothing on the minor heap (the arrays grow by doubling,
   rarely, and large arrays live in the major heap), so the GC
   counters read around a span are the program's own.  Nothing is
   written out while the workload runs; [to_chrome] exports the
   buffers once it has ended. *)

type layer =
  | Parse  (** [Scenario.of_file] *)
  | Build  (** [Aft.build], tag = mode *)
  | Run  (** one whole fleet run *)
  | Worker  (** one worker's busy interval under [Sched.fold_shards] *)
  | Device  (** one device, from [Kernel.create] to its oracle *)
  | Create  (** [Kernel.create] *)
  | Traffic  (** traffic generation plus [Kernel.post] *)
  | Dispatch  (** [Kernel.dispatch_next], tag = mode, aux = outcome *)
  | Os_intact  (** [Kernel.os_intact] *)
  | Liveness  (** [Kernel.liveness_probe] *)
  | Record  (** [Fleet.shard_record] *)
  | Merge  (** [Fleet.shard_merge] *)

let layer_name = function
  | Parse -> "fleet.parse"
  | Build -> "aft.build"
  | Run -> "fleet.run"
  | Worker -> "sched.worker"
  | Device -> "fleet.device"
  | Create -> "os.create"
  | Traffic -> "fleet.traffic"
  | Dispatch -> "os.dispatch_next"
  | Os_intact -> "os.os_intact"
  | Liveness -> "os.liveness_probe"
  | Record -> "fleet.record"
  | Merge -> "fleet.merge"

(* [aux] values of a [Dispatch] span *)
let outcome_ok = 0
let outcome_no_handler = 1
let outcome_fault = 2

type t = {
  worker : int;
  mutable n : int;
  mutable layer : layer array;
  mutable start : int array;  (** ns *)
  mutable stop : int array;
  mutable parent : int array;  (** index in this buffer, -1 for a root *)
  mutable id : int array;  (** device index shared by a device's spans, -1 *)
  mutable tag : int array;
  mutable aux : int array;
  mutable cycles : int array;  (** simulated cycles ([Dispatch]) *)
  mutable words : int array;  (** minor-heap words allocated in the span *)
}

let create ?(capacity = 4096) ~worker () =
  let z () = Array.make capacity 0 in
  {
    worker;
    n = 0;
    layer = Array.make capacity Run;
    start = z ();
    stop = z ();
    parent = z ();
    id = z ();
    tag = z ();
    aux = z ();
    cycles = z ();
    words = z ();
  }

let grow b =
  let cap = 2 * Array.length b.start in
  let ext a d =
    let a' = Array.make cap d in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.layer <- ext b.layer Run;
  b.start <- ext b.start 0;
  b.stop <- ext b.stop 0;
  b.parent <- ext b.parent 0;
  b.id <- ext b.id 0;
  b.tag <- ext b.tag 0;
  b.aux <- ext b.aux 0;
  b.cycles <- ext b.cycles 0;
  b.words <- ext b.words 0

let minor_words () = int_of_float (Gc.minor_words ())

let open_ b layer ~parent ~id ~tag =
  if b.n = Array.length b.start then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.layer.(i) <- layer;
  b.parent.(i) <- parent;
  b.id.(i) <- id;
  b.tag.(i) <- tag;
  b.aux.(i) <- 0;
  b.cycles.(i) <- 0;
  b.words.(i) <- minor_words ();
  b.start.(i) <- Clock.now_ns ();
  i

let close b i =
  b.stop.(i) <- Clock.now_ns ();
  b.words.(i) <- minor_words () - b.words.(i)

let set_aux b i v = b.aux.(i) <- v
let set_cycles b i v = b.cycles.(i) <- v

(* [with_span sp layer ~parent ~id ~tag f] runs [f] inside a span when
   tracing ([sp] = [Some _]) and plainly otherwise, so one device
   loop serves both the traced and the untraced run. *)
let with_span sp layer ~parent ~id ~tag f =
  match sp with
  | None -> f ()
  | Some b ->
    let i = open_ b layer ~parent ~id ~tag in
    let r = f () in
    close b i;
    r

let duration b i = b.stop.(i) - b.start.(i)

(* Self time of every span: its duration minus the durations of its
   children.  Spans of one buffer come from one thread, so children
   never overlap and the subtraction is exact. *)
let self_times b =
  let self = Array.init b.n (duration b) in
  for i = 0 to b.n - 1 do
    let p = b.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration b i
  done;
  self

let iter b f =
  for i = 0 to b.n - 1 do
    f i
  done

(* Chrome trace_event export: one complete ("X") event per span,
   timestamps in microseconds relative to [t0], one thread per worker
   buffer. *)
let to_chrome ~t0 bufs oc =
  let module J = Amulet_obs.Json in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun b ->
      iter b (fun i ->
          if not !first then output_string oc ",\n";
          first := false;
          let us ns = J.Float (float_of_int ns /. 1000.0) in
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("name", J.Str (layer_name b.layer.(i)));
                    ("ph", J.Str "X");
                    ("pid", J.Int 0);
                    ("tid", J.Int b.worker);
                    ("ts", us (b.start.(i) - t0));
                    ("dur", us (duration b i));
                    ( "args",
                      J.Obj
                        [
                          ("span", J.Int i);
                          ("parent", J.Int b.parent.(i));
                          ("id", J.Int b.id.(i));
                          ("tag", J.Int b.tag.(i));
                          ("aux", J.Int b.aux.(i));
                          ("cycles", J.Int b.cycles.(i));
                          ("minor_words", J.Int b.words.(i));
                        ] );
                  ]))))
    bufs;
  output_string oc "\n]}\n"
