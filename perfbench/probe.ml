(* A fixed host-speed probe.

   The benchmark shares its host with other tenants, and the host's
   speed steps up and down by 40 % or more within minutes, for every
   workload and for set-up alike.  A time measured in one of those
   stretches says more about the neighbours than about the program.
   The probe is a fixed amount of work that stands in for the host's
   speed at the moment of a trial: a small register-machine
   interpreter over a fixed program, with the simulator's mix of
   decoding, branchy dispatch, array loads and stores and table
   lookups.  It calls no code outside this file, so no change to the
   program under test can move it.

   [calibration ()] times the probe once.  The harness runs it right
   before and right after every untraced trial and scales that
   trial's host times by [reference_s] over the mean of the two, so
   its metrics read as if the host ran the probe in exactly
   [reference_s].  Raw times and probe times are kept in the detail
   record. *)

let steps = 10_000_000
let words = 4096

let program = Array.init words (fun i -> (i * 40503 + (i lsr 3) * 2654435761) land 0xFFFF)

(* The probe's state, allocated once: the probe itself allocates
   nothing, so it never runs GC work the program under test left
   behind. *)
let regs = Array.make 16 0
let mem = Array.make 65536 0
let table = Array.make 1024 (-1)

let run () =
  Array.fill regs 0 16 1;
  Array.fill mem 0 65536 0;
  Array.fill table 0 1024 (-1);
  let pc = ref 0 and acc = ref 0 in
  for step = 1 to steps do
    let w = program.(!pc) in
    let a = (w lsr 8) land 15 and b = (w lsr 4) land 15 in
    (match (w lsr 12) land 7 with
    | 0 -> regs.(a) <- (regs.(a) + regs.(b)) land 0xFFFF
    | 1 -> regs.(a) <- mem.((regs.(b) + w) land 0xFFFF)
    | 2 -> mem.((regs.(a) + w) land 0xFFFF) <- regs.(b)
    | 3 -> regs.(a) <- (regs.(a) lxor (regs.(b) lsl 1)) land 0xFFFF
    | 4 ->
      let key = (!pc + regs.(b)) land 1023 in
      let v = table.(key) in
      if v >= 0 then regs.(a) <- v else table.(key) <- regs.(a)
    | 5 -> acc := !acc + (step lxor regs.(a))
    | 6 -> if regs.(a) land 1 = 0 then pc := (!pc + regs.(b)) land (words - 1)
    | _ -> regs.(a) <- ((regs.(a) * 3) + 1) land 0xFFFF);
    pc := (!pc + 1) land (words - 1)
  done;
  Array.fold_left ( + ) !acc regs

(* Host seconds the probe takes at the reference speed: about its
   median on the 2-vCPU host the benchmark was written on. *)
let reference_s = 0.04

let calibration () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (run ()));
  Clock.seconds_of_ns (Clock.now_ns () - t0)
