(* Differential testing: random WearC programs are evaluated by an
   OCaml reference interpreter and executed by the compiled code on
   the simulated MCU, under every isolation mode.  Any divergence is a
   compiler, ISA or simulator bug.

   The generated programs are pointer-free straight-line code over int
   globals (so all four modes accept them and short-circuit evaluation
   has no observable side effects), but they exercise the whole
   arithmetic surface: wrapping add/sub/mul, signed division and
   modulo, shifts by constant and by variable, bitwise operators,
   comparisons, ternaries and logical connectives. *)

module H = Test_support.Harness
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module An = Amulet_analysis

(* ------------------------------------------------------------------ *)
(* Expression language shared by generator, printer and evaluator *)

type expr =
  | Const of int
  | Global of int  (* g0..g3 *)
  | Bin of string * expr * expr
  | Un of string * expr
  | Ternary of expr * expr * expr

(* 16-bit reference semantics *)
let wrap v = v land 0xFFFF
let signed v = if v land 0x8000 <> 0 then v - 0x10000 else v
let bool01 b = if b then 1 else 0

let rec eval env = function
  | Const n -> wrap n
  | Global i -> wrap env.(i)
  | Un ("-", a) -> wrap (-eval env a)
  | Un ("~", a) -> wrap (lnot (eval env a))
  | Un ("!", a) -> bool01 (eval env a = 0)
  | Un (op, _) -> failwith ("bad unop " ^ op)
  | Ternary (c, a, b) -> if eval env c <> 0 then eval env a else eval env b
  | Bin (op, a, b) -> (
    let va = eval env a and vb = eval env b in
    let sa = signed va and sb = signed vb in
    match op with
    | "+" -> wrap (va + vb)
    | "-" -> wrap (va - vb)
    | "*" -> wrap (va * vb)
    | "/" -> if sb = 0 then 0 (* avoided by construction *) else wrap (sa / sb)
    | "%" -> if sb = 0 then 0 else wrap (sa mod sb)
    | "&" -> va land vb
    | "|" -> va lor vb
    | "^" -> va lxor vb
    | "<<" -> wrap (va lsl (vb land 15))
    | ">>" -> wrap (sa asr (vb land 15))
    | "<" -> bool01 (sa < sb)
    | ">" -> bool01 (sa > sb)
    | "<=" -> bool01 (sa <= sb)
    | ">=" -> bool01 (sa >= sb)
    | "==" -> bool01 (va = vb)
    | "!=" -> bool01 (va <> vb)
    | "&&" -> bool01 (va <> 0 && vb <> 0)
    | "||" -> bool01 (va <> 0 || vb <> 0)
    | _ -> failwith ("bad binop " ^ op))

let rec print = function
  | Const n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Global i -> Printf.sprintf "g%d" i
  | Un (op, a) -> Printf.sprintf "(%s%s)" op (print a)
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (print a) op (print b)
  | Ternary (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (print c) (print a) (print b)

(* ------------------------------------------------------------------ *)
(* Generator *)

let gen_expr : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* cap the size: subtree fan-out of 3 per level is exponential, and
     the firmware must fit in 64 KiB under the check-heaviest mode *)
  sized @@ fun n ->
  (fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun v -> Const v) (int_range 0 0xFFFF);
            map (fun v -> Const v) (int_range (-200) 200);
            map (fun i -> Global i) (int_range 0 3);
          ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        (* division/modulo get a non-zero constant divisor so the
           reference never sees a trap the hardware helper turns into
           garbage *)
        let divisor =
          oneof [ int_range 1 400; int_range (-400) (-1) ]
          |> map (fun v -> Const v)
        in
        oneof
          [
            leaf;
            map2 (fun a b -> Bin ("+", a, b)) sub sub;
            map2 (fun a b -> Bin ("-", a, b)) sub sub;
            map2 (fun a b -> Bin ("*", a, b)) sub sub;
            map2 (fun a d -> Bin ("/", a, d)) sub divisor;
            map2 (fun a d -> Bin ("%", a, d)) sub divisor;
            map2 (fun a b -> Bin ("&", a, b)) sub sub;
            map2 (fun a b -> Bin ("|", a, b)) sub sub;
            map2 (fun a b -> Bin ("^", a, b)) sub sub;
            map2 (fun a k -> Bin ("<<", a, Const k)) sub (int_range 0 15);
            map2 (fun a k -> Bin (">>", a, Const k)) sub (int_range 0 15);
            map2 (fun a b -> Bin ("<<", a, Bin ("&", b, Const 7))) sub sub;
            (let cmp = oneofl [ "<"; ">"; "<="; ">="; "=="; "!=" ] in
             map3 (fun op a b -> Bin (op, a, b)) cmp sub sub);
            (let con = oneofl [ "&&"; "||" ] in
             map3 (fun op a b -> Bin (op, a, b)) con sub sub);
            map (fun a -> Un ("-", a)) sub;
            map (fun a -> Un ("~", a)) sub;
            map (fun a -> Un ("!", a)) sub;
            map3 (fun c a b -> Ternary (c, a, b)) sub sub sub;
          ]))
    (min n 20)

type program = { inits : int array; stmts : (int * expr) list; result : expr }

let gen_program : program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* inits = array_size (return 4) (int_range 0 0xFFFF) in
  let* stmts =
    list_size (int_range 0 5)
      (pair (int_range 0 3) (gen_expr |> map (fun e -> e)))
  in
  let* result = gen_expr in
  return { inits; stmts; result }

let to_source p =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i v -> Buffer.add_string buf (Printf.sprintf "int g%d = %d;\n" i v))
    p.inits;
  Buffer.add_string buf "int main() {\n";
  List.iter
    (fun (i, e) -> Buffer.add_string buf (Printf.sprintf "  g%d = %s;\n" i (print e)))
    p.stmts;
  Buffer.add_string buf (Printf.sprintf "  return %s;\n}\n" (print p.result));
  Buffer.contents buf

let reference_result p =
  let env = Array.map wrap p.inits in
  List.iter (fun (i, e) -> env.(i) <- eval env e) p.stmts;
  eval env p.result

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Every property draws from a per-test RNG seeded from [master_seed],
   so a failure reproduces exactly by re-running with the printed
   [QCHECK_SEED] — independent of how many cases other tests drew. *)
let master_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    try int_of_string s
    with _ -> failwith ("QCHECK_SEED is not an integer: " ^ s))
  | None -> 0x5EED

let fresh_rand () = Random.State.make [| master_seed |]

(* Wrap a property so a failing case prints the reproducing seed and
   the generated source to stderr — alcotest swallows qcheck's own
   counterexample output unless run verbose. *)
let reporting name prop p =
  let dump ~reason =
    Printf.eprintf
      "\n\
       [test_diff] %s: %s\n\
       [test_diff] reproduce with: QCHECK_SEED=%d dune exec \
       test/test_diff.exe\n\
       [test_diff] generated program:\n\
       %s%!"
      name reason master_seed (to_source p)
  in
  match prop p with
  | true -> true
  | false ->
    dump ~reason:"property is false";
    false
  | exception e ->
    dump ~reason:("raised " ^ Printexc.to_string e);
    raise e

let run_mode mode src =
  let r = H.run ~mode src in
  match r.H.stop with
  | M.Halted -> H.return_value r
  | other ->
    failwith (Format.asprintf "did not halt: %a" M.pp_stop_reason other)

let diff_property mode =
  QCheck2.Test.make ~count:120
    ~name:("compiled = reference (" ^ Iso.name mode ^ ")")
    ~print:(fun p ->
      Printf.sprintf "%s\n(* reference: %d *)" (to_source p)
        (reference_result p))
    gen_program
    (reporting
       ("compiled = reference (" ^ Iso.name mode ^ ")")
       (fun p ->
         let src = to_source p in
         let got = run_mode mode src and want = reference_result p in
         if got <> want then
           Printf.eprintf "[test_diff] compiled %d, reference %d\n%!" got want;
         got = want))

(* Every random program's binary must also pass both independent
   static checkers — the SFI verifier and the CFI reconstruction.  The
   emitter, the verifier and the CFI pass share no code, so a program
   the simulator runs correctly but a checker rejects means one of the
   three disagrees about the policy. *)
let static_certification mode =
  QCheck2.Test.make ~count:60
    ~name:("SFI and CFI accept (" ^ Iso.name mode ^ ")")
    ~print:to_source gen_program
    (reporting
       ("SFI and CFI accept (" ^ Iso.name mode ^ ")")
       (fun p ->
         let _cu, image = H.build ~mode (to_source p) in
         let sfi_ok =
           match An.Verifier.verify_app ~image ~mode ~prefix:"prog" with
           | Ok _ -> true
           | Error _ -> false
         in
         let cfi_ok =
           match An.Cfi.reconstruct ~image ~mode ~prefix:"prog" with
           | Ok _ -> true
           | Error _ -> false
         in
         sfi_ok && cfi_ok))

(* All modes agree with each other on the same program (a weaker but
   broader check run on fewer cases). *)
let mode_agreement =
  QCheck2.Test.make ~count:40 ~name:"all isolation modes agree"
    ~print:to_source gen_program
    (reporting "all isolation modes agree" (fun p ->
         let src = to_source p in
         let reference = run_mode Iso.No_isolation src in
         List.for_all (fun mode -> run_mode mode src = reference) Iso.all))

(* ------------------------------------------------------------------ *)
(* Differential lockstep: the predecoded block engine against the
   retained reference per-instruction stepper.

   The same linked image is loaded into two machines.  The second
   carries a no-op event watcher, which forces [Machine.run] onto the
   reference slow path; the first stays hooks-off and dispatches from
   the predecoded block cache.  Driving both with [run ~fuel:1] pins
   the comparison to every instruction boundary: stop reason,
   register file, cycle counter, retired-instruction count, access
   statistics, console and all 64 KiB of memory must be identical
   throughout. *)

module Mem = Amulet_mcu.Memory
module Regs = Amulet_mcu.Registers
module Cpu = Amulet_mcu.Cpu
module Trace = Amulet_mcu.Trace

let lockstep_pair image =
  let mk () =
    let m = M.create () in
    Amulet_link.Image.load image m;
    M.reset m;
    m
  in
  let fast = mk () in
  let slow = mk () in
  M.add_watch slow (fun _ -> ());
  (fast, slow)

let show_stop r = Format.asprintf "%a" M.pp_stop_reason r

let compare_machines ~insn fast slow =
  let fail fmt = Printf.ksprintf failwith fmt in
  for i = 0 to 15 do
    let a = Regs.get (M.regs fast) i and b = Regs.get (M.regs slow) i in
    if a <> b then fail "insn %d: r%d fast=%#06x slow=%#06x" insn i a b
  done;
  if M.cycles fast <> M.cycles slow then
    fail "insn %d: cycles fast=%d slow=%d" insn (M.cycles fast)
      (M.cycles slow);
  if fast.M.cpu.Cpu.insns <> slow.M.cpu.Cpu.insns then
    fail "insn %d: retired fast=%d slow=%d" insn fast.M.cpu.Cpu.insns
      slow.M.cpu.Cpu.insns;
  let sa = fast.M.stats and sb = slow.M.stats in
  if sa.Trace.fetch_words <> sb.Trace.fetch_words then
    fail "insn %d: fetch_words fast=%d slow=%d" insn sa.Trace.fetch_words
      sb.Trace.fetch_words;
  if sa.Trace.data_reads <> sb.Trace.data_reads then
    fail "insn %d: data_reads fast=%d slow=%d" insn sa.Trace.data_reads
      sb.Trace.data_reads;
  if sa.Trace.data_writes <> sb.Trace.data_writes then
    fail "insn %d: data_writes fast=%d slow=%d" insn sa.Trace.data_writes
      sb.Trace.data_writes;
  if M.console_contents fast <> M.console_contents slow then
    fail "insn %d: console diverged" insn;
  if not (Mem.equal fast.M.mem slow.M.mem) then
    fail "insn %d: memory diverged" insn

let lockstep_run ?(max_insns = 200_000) image =
  let fast, slow = lockstep_pair image in
  compare_machines ~insn:(-1) fast slow;
  let rec go insn =
    let ra = M.run ~fuel:1 fast in
    let rb = M.run ~fuel:1 slow in
    if ra <> rb then
      Printf.ksprintf failwith "insn %d: stop fast=%s slow=%s" insn
        (show_stop ra) (show_stop rb);
    compare_machines ~insn fast slow;
    match ra with
    | M.Out_of_fuel ->
      if insn >= max_insns then
        failwith "lockstep: program did not terminate"
      else go (insn + 1)
    | M.Halted | M.Faulted _ | M.Sw_fault _ -> ra
  in
  go 0

let lockstep_property mode =
  QCheck2.Test.make ~count:40
    ~name:("predecode lockstep (" ^ Iso.name mode ^ ")")
    ~print:to_source gen_program
    (reporting
       ("predecode lockstep (" ^ Iso.name mode ^ ")")
       (fun p ->
         let _cu, image = H.build ~mode (to_source p) in
         match lockstep_run image with
         | M.Halted -> true
         | r -> failwith ("lockstep stopped with " ^ show_stop r)))

(* Attack-corpus lockstep: every corpus attack that builds, under
   every isolation mode, dispatched on two kernels over the same
   firmware — one hooks-off (predecoded engine), one with a no-op
   watcher armed (reference stepper).  Virtual time, every dispatch
   record (cycles, access counts, outcome — fault identity included),
   console, register file and full memory must match after the run;
   per-instruction equality inside each dispatch is what the QCheck
   lockstep above establishes. *)

module Attacks = Amulet_sec.Attacks
module Kernel = Amulet_os.Kernel

let corpus_lockstep_mode mode () =
  List.iter
    (fun attack ->
      match Attacks.build_cell ~attack ~mode with
      | Attacks.Rejected _ -> ()
      | Attacks.Built { fw; _ } ->
        let name = attack.Attacks.atk_name in
        let fast = Kernel.create ~policy:Kernel.Disable fw in
        let slow = Kernel.create ~policy:Kernel.Disable fw in
        M.add_watch slow.Kernel.machine (fun _ -> ());
        let ra = Kernel.run_for_ms fast 60 in
        let rb = Kernel.run_for_ms slow 60 in
        Alcotest.(check int)
          (name ^ ": dispatch count")
          (List.length rb) (List.length ra);
        List.iter2
          (fun (a : Kernel.dispatch_record) (b : Kernel.dispatch_record) ->
            if a <> b then
              Alcotest.failf "%s: dispatch record diverged (%d vs %d cycles)"
                name a.Kernel.dr_cycles b.Kernel.dr_cycles)
          ra rb;
        Alcotest.(check int)
          (name ^ ": cycles")
          (M.cycles slow.Kernel.machine)
          (M.cycles fast.Kernel.machine);
        for i = 0 to 15 do
          Alcotest.(check int)
            (Printf.sprintf "%s: r%d" name i)
            (Regs.get (M.regs slow.Kernel.machine) i)
            (Regs.get (M.regs fast.Kernel.machine) i)
        done;
        Alcotest.(check string)
          (name ^ ": console")
          (M.console_contents slow.Kernel.machine)
          (M.console_contents fast.Kernel.machine);
        Alcotest.(check bool)
          (name ^ ": memory")
          true
          (Mem.equal fast.Kernel.machine.M.mem slow.Kernel.machine.M.mem))
    Attacks.corpus

(* Predecode cache invisibility: the same pedometer run three ways —
   hooks-off with a warm block cache, under the reference stepper (a
   no-op watcher armed), and hooks-off with the cache dropped every
   100 virtual ms so every block decodes cold.  A decoder that charged
   cycles or perturbed state would show up as a difference in cycles,
   dispatch records or console. *)

let predecode_identity () =
  let module Apps = Amulet_apps.Suite in
  let mode = Iso.Mpu_assisted in
  let mk () =
    Kernel.create ~scenario:Amulet_os.Sensors.Walking
      (Amulet_aft.Aft.build ~mode
         [ Apps.spec_for mode (Apps.find "pedometer") ])
  in
  (* 5 virtual s in 100 ms slices: [run_for_ms] composes exactly *)
  let run ?(between = ignore) k =
    let records = ref [] in
    for _ = 1 to 50 do
      between k;
      records := List.rev_append (Kernel.run_for_ms k 100) !records
    done;
    ( M.cycles k.Kernel.machine,
      List.rev !records,
      M.console_contents k.Kernel.machine )
  in
  let warm_cycles, warm_records, warm_console = run (mk ()) in
  let check label (cycles, records, console) =
    Alcotest.(check int) (label ^ ": cycles") warm_cycles cycles;
    Alcotest.(check bool)
      (label ^ ": dispatch records") true (records = warm_records);
    Alcotest.(check string) (label ^ ": console") warm_console console
  in
  let slow = mk () in
  M.add_watch slow.Kernel.machine (fun _ -> ());
  check "reference stepper" (run slow);
  check "cold cache"
    (run ~between:(fun k -> Hashtbl.reset k.Kernel.machine.M.blocks) (mk ()));
  Alcotest.(check bool) "dispatches happened" true (warm_records <> [])

let () =
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(fresh_rand ()) t in
  Alcotest.run "diff"
    [
      ( "reference-vs-simulator",
        List.map to_alcotest
          [
            diff_property Iso.No_isolation;
            diff_property Iso.Mpu_assisted;
            diff_property Iso.Software_only;
            diff_property Iso.Feature_limited;
            mode_agreement;
          ] );
      ( "static-certification",
        List.map to_alcotest
          [
            static_certification Iso.Mpu_assisted;
            static_certification Iso.Software_only;
          ] );
      ( "lockstep",
        List.map to_alcotest
          [
            lockstep_property Iso.No_isolation;
            lockstep_property Iso.Mpu_assisted;
            lockstep_property Iso.Software_only;
            lockstep_property Iso.Feature_limited;
          ]
        @ List.map
            (fun mode ->
              Alcotest.test_case
                ("attack corpus (" ^ Iso.name mode ^ ")")
                `Quick (corpus_lockstep_mode mode))
            Iso.all
        @ [
            Alcotest.test_case "predecode warm, cold and reference agree"
              `Quick predecode_identity;
          ] );
    ]
