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
   static checkers — the CFI reconstruction and the SFI verifier that
   runs over its graph.  The emitter shares no code with either, so a
   program the simulator runs correctly but a checker rejects means
   the emitter and the checkers disagree about the policy. *)
let static_certification mode =
  QCheck2.Test.make ~count:60
    ~name:("SFI and CFI accept (" ^ Iso.name mode ^ ")")
    ~print:to_source gen_program
    (reporting
       ("SFI and CFI accept (" ^ Iso.name mode ^ ")")
       (fun p ->
         let _cu, image = H.build ~mode (to_source p) in
         match An.Cfi.reconstruct ~image ~mode ~prefix:"prog" with
         | Ok cfg -> Result.is_ok (An.Verifier.verify ~cfg)
         | Error _ -> false))

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

(* Mid-block MPU reconfiguration.  [lockstep_run] steps one
   instruction at a time, so no multi-uop block ever runs past an MPU
   write there.  These hand-assembled images are one straight-line
   basic block that reprograms the MPU part-way through; each runs at
   full fuel on the block engine and on the reference stepper (a no-op
   step hook armed), and the outcome must be identical: stop reason
   (fault pc included), registers, cycles, fetch words and memory. *)

module Mpu = Amulet_mcu.Mpu
module Op = Amulet_mcu.Opcode
module W = Amulet_mcu.Word

let mov_imm v dst = Op.Fmt1 (Op.MOV, W.W16, Op.S_immediate v, dst)
let mmio v addr = mov_imm v (Op.D_absolute addr)
let halt = mmio 1 M.halt_port

let sam ~seg1 ~seg2 ~seg3 = Mpu.sam_bits ~seg1 ~seg2 ~seg3 ()

(* MPU on, boundaries at [b1] and 0xC000, SAM [sam0] *)
let enable_mpu ~b1 ~sam0 =
  [ mmio (b1 lsr 4) Mpu.segb1_addr; mmio 0x0C00 Mpu.segb2_addr;
    mmio sam0 Mpu.sam_addr; mmio 0xA501 Mpu.ctl0_addr ]

let midblock_lockstep ?(base = 0x4400) ~expect insns () =
  let words = List.concat_map Amulet_mcu.Encode.encode insns in
  let mk () =
    let m = M.create () in
    M.load_words m ~addr:base words;
    M.set_reset_vector m base;
    M.reset m;
    m
  in
  let fast = mk () and slow = mk () in
  M.add_step_hook slow (fun _ -> ());
  let ra = M.run fast and rb = M.run slow in
  (* the printed fault names every field: access, address, segment, pc *)
  Alcotest.(check string) "stop reason" (show_stop rb) (show_stop ra);
  compare_machines ~insn:fast.M.cpu.Cpu.insns fast slow;
  (match Hashtbl.find_opt fast.M.blocks base with
  | Some b ->
    Alcotest.(check bool)
      "the block engine ran the program as one block" true
      (Array.length b.Amulet_mcu.Predecode.b_uops = List.length insns)
  | None -> Alcotest.fail "no block cached at the entry pc");
  expect ra

let expect_exec_fault ~pc = function
  | M.Faulted (M.Mpu_violation { access = Mpu.Exec; pc = p; _ }) when p = pc ->
    ()
  | r -> Alcotest.failf "expected an execute fault at %04X, got %s" pc
           (show_stop r)

let expect_halt = function
  | M.Halted -> ()
  | r -> Alcotest.failf "expected halt, got %s" (show_stop r)

let byte_len insns =
  List.fold_left (fun n i -> n + Amulet_mcu.Encode.length_bytes i) 0 insns

(* (a) the MPUSAM write revokes execute on the block's own segment:
   the next instruction faults on its fetch *)
let midblock_revoke =
  let prefix =
    enable_mpu ~b1:0x8000 ~sam0:(sam ~seg1:"rwx" ~seg2:"rw" ~seg3:"rw")
    @ [ mov_imm 0x1111 (Op.D_reg 5);
        mmio (sam ~seg1:"rw" ~seg2:"rw" ~seg3:"rw") Mpu.sam_addr ]
  in
  midblock_lockstep
    ~expect:(expect_exec_fault ~pc:(0x4400 + byte_len prefix))
    (prefix @ [ mov_imm 0x2222 (Op.D_reg 6); halt ])

(* (b) MPUSAM and MPUCTL0 writes that change the configuration but keep
   execute on the running segment: the block runs to the halt *)
let midblock_keep =
  midblock_lockstep ~expect:expect_halt
    (enable_mpu ~b1:0x8000 ~sam0:(sam ~seg1:"rwx" ~seg2:"rw" ~seg3:"")
    @ [ mov_imm 0x1111 (Op.D_reg 5);
        mmio (sam ~seg1:"x" ~seg2:"rw" ~seg3:"rw") Mpu.sam_addr;
        mov_imm 0x2222 (Op.D_reg 6);
        mmio 0xA501 Mpu.ctl0_addr;
        mov_imm 0x3333 (Op.D_absolute 0xD000);
        halt ])

(* (c) enabling the MPU mid-block leaves the block's tail in a segment
   without execute, and the boundary splits an instruction: its first
   word is fetched and counted, its extension word faults *)
let midblock_straddle =
  let prefix =
    enable_mpu ~b1:0x4800 ~sam0:(sam ~seg1:"rwx" ~seg2:"rw" ~seg3:"rw")
    @ [ mov_imm 0x1111 (Op.D_reg 5) ]
  in
  let base = 0x4800 - 2 - byte_len prefix in
  midblock_lockstep ~base ~expect:(expect_exec_fault ~pc:0x47FE)
    (prefix @ [ mov_imm 0x1234 (Op.D_reg 7); halt ])

(* Instruction-form lockstep.  The compiled micro-ops and [Cpu.step]
   share the ALU but no operand or executor code, and the WearC
   compiler emits only some encodable forms, so the lockstep above
   cannot reach them all.  These random straight-line blocks do: every
   two-operand, single-operand and jump op in both widths; every source
   mode (register, long-form and constant-generator immediates,
   absolute, indexed, PC-relative, indirect, autoincrement with SP's
   word step) and destination mode; PC, SP and SR as operands; and
   addresses that are odd, in MMIO space, in the block's own code, or
   unmapped and must fault.  Each block starts from random registers,
   memory and MPU configuration and runs at full fuel on the block
   engine and on the reference stepper (a no-op step hook armed); the
   stop reason (an escaping exception included) and the whole machine
   must match. *)

module Timer = Amulet_mcu.Timer

type form_case = {
  fc_insns : (Op.t * bool) list;  (** instruction, long-form immediate *)
  fc_regs : int array;  (** R1..R15; R0 is the block's entry *)
  fc_mem_seed : int;
  fc_mpu : (int * int * int) option;  (** b1, b2, sam: enabled *)
}

let form_base = 0x4400
let form_fuel = 400

(* Initialised data: SRAM, InfoMem, a FRAM window, and the code page
   around the block (garbage beyond the halt for stray jumps). *)
let form_windows =
  [ (0x1C00, 0x800); (0x1800, 0x200); (0x6000, 0x100); (form_base, 0x100) ]

let gen_form_addr =
  let open QCheck2.Gen in
  frequency
    [
      (8, int_range 0x1C00 0x23FF);
      (2, int_range 0x1800 0x19FF);
      (2, int_range 0x6000 0x60FF);
      (1, int_range form_base (form_base + 0x3F));
      ( 2,
        oneofl
          [ M.console_port; M.host_call_port; M.halt_port; M.sw_fault_port;
            Mpu.ctl0_addr; Mpu.ctl1_addr; Mpu.segb1_addr; Mpu.segb2_addr;
            Mpu.sam_addr; Timer.ctl_addr; Timer.counter_addr;
            Timer.ex0_addr ] );
      (1, int_range 0 0x0FFF);
      (1, oneof [ int_range 0x1A00 0x1BFF; int_range 0x2400 0x43FF ]);
      (1, int_range 0 0xFFFF);
    ]

let gen_form_imm =
  let open QCheck2.Gen in
  oneof
    [
      oneofl [ 0; 1; 2; 4; 8; 0xFF; 0xFFFF ];
      int_range 0 0xFFFF;
      map (fun lo -> 0xA500 lor lo) (int_range 0 0xFF);
      gen_form_addr;
    ]

(* R3 reads as a constant generator and R2 has no indexed or indirect
   form, so those registers appear where the encoding allows them. *)
let gen_base_reg = QCheck2.Gen.(oneof [ int_range 4 15; oneofl [ 0; 1 ] ])

let gen_offset =
  QCheck2.Gen.(
    frequency [ (3, int_range (-8) 8); (1, int_range (-0x8000) 0x7FFF) ])

let gen_mem_src =
  let open QCheck2.Gen in
  oneof
    [
      map (fun a -> Op.S_absolute a) gen_form_addr;
      map2 (fun r x -> Op.S_indexed (r, x)) gen_base_reg gen_offset;
      map (fun r -> Op.S_indirect r) gen_base_reg;
      map (fun r -> Op.S_indirect_inc r) (oneof [ int_range 4 15; return 1 ]);
    ]

let gen_reg_src =
  QCheck2.Gen.(map (fun r -> Op.S_reg r) (oneof [ int_range 4 15; oneofl [ 0; 1; 2 ] ]))

let gen_form_src =
  let open QCheck2.Gen in
  frequency
    [
      (2, gen_reg_src);
      (2, map (fun n -> Op.S_immediate n) gen_form_imm);
      (4, gen_mem_src);
    ]

let gen_form_dst =
  let open QCheck2.Gen in
  frequency
    [
      (3, map (fun r -> Op.D_reg r) (int_range 1 15));
      (1, return (Op.D_reg 0));
      (3, map2 (fun r x -> Op.D_indexed (r, x)) gen_base_reg gen_offset);
      (3, map (fun a -> Op.D_absolute a) gen_form_addr);
    ]

let gen_form_insn =
  let open QCheck2.Gen in
  let width = oneofl [ W.W8; W.W16 ] in
  let fmt1 =
    map4
      (fun op w s d -> Op.Fmt1 (op, w, s, d))
      (oneofl
         Op.[ MOV; ADD; ADDC; SUBC; SUB; CMP; DADD; BIT; BIC; BIS; XOR; AND ])
      width gen_form_src gen_form_dst
  in
  let fmt2 =
    let* op = oneofl Op.[ RRC; SWPB; RRA; SXT; PUSH; CALL ] in
    let* w =
      match op with Op.SWPB | Op.SXT | Op.CALL -> return W.W16 | _ -> width
    in
    let+ s =
      match op with
      (* read-modify-write ops have no immediate form *)
      | Op.RRC | Op.RRA | Op.SWPB | Op.SXT ->
        frequency [ (1, gen_reg_src); (2, gen_mem_src) ]
      | Op.PUSH | Op.CALL -> gen_form_src
    in
    Op.Fmt2 (op, w, s)
  in
  let jump =
    map2
      (fun c off -> Op.Jump (c, off))
      (oneofl Op.[ JNE; JEQ; JNC; JC; JN; JGE; JL; JMP ])
      (int_range (-2) 4)
  in
  frequency [ (8, fmt1); (4, fmt2); (3, jump); (1, return Op.Reti) ]

let gen_form_case =
  let open QCheck2.Gen in
  let* fc_insns =
    list_size (int_range 1 8)
      (pair gen_form_insn (frequency [ (3, return false); (1, return true) ]))
  in
  let* sp = oneof [ map (fun a -> a land lnot 1) (int_range 0x1C10 0x2400); gen_form_addr ] in
  let* sr = int_range 0 0x1FF in
  let* gp =
    array_size (return 12)
      (frequency [ (3, gen_form_addr); (1, int_range 0 0xFFFF) ])
  in
  let fc_regs = Array.concat [ [| sp; sr; 0 |]; gp ] in
  let* fc_mem_seed = int in
  let+ fc_mpu =
    frequency
      [
        (2, return None);
        ( 1,
          let perms = oneofl [ ""; "r"; "w"; "rw"; "x"; "rx"; "rwx" ] in
          let* b1 = map (fun k -> 0x4800 + (k * 0x400)) (int_range 0 16) in
          let* b2 = map (fun k -> b1 + (k * 0x400)) (int_range 0 16) in
          let* seg1 = oneofl [ "x"; "rx"; "rwx" ] in
          let* seg2 = perms and* seg3 = perms and* info = perms in
          return (Some (b1, b2, Mpu.sam_bits ~seg1 ~seg2 ~seg3 ~info ())) );
      ]
  in
  { fc_insns; fc_regs; fc_mem_seed; fc_mpu }

let print_form_case c =
  let insns =
    List.map
      (fun (i, long) -> Op.to_string i ^ if long then "  (long immediate)" else "")
      c.fc_insns
  in
  Printf.sprintf "%s\nR1..R15 = %s\nmemory seed %d, MPU %s"
    (String.concat "\n" insns)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%04X") c.fc_regs)))
    c.fc_mem_seed
    (match c.fc_mpu with
    | None -> "off"
    | Some (b1, b2, sam) -> Printf.sprintf "b1=%04X b2=%04X sam=%04X" b1 b2 sam)

let form_machine c =
  let m = M.create () in
  let rng = Random.State.make [| c.fc_mem_seed |] in
  List.iter
    (fun (addr, len) ->
      M.load_bytes m ~addr
        (Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))))
    form_windows;
  let words =
    List.concat_map
      (fun (i, no_cg_imm) -> Amulet_mcu.Encode.encode ~no_cg_imm i)
      (c.fc_insns @ [ (halt, false) ])
  in
  M.load_words m ~addr:form_base words;
  M.set_reset_vector m form_base;
  M.reset m;
  Array.iteri (fun i v -> Regs.set (M.regs m) (i + 1) v) c.fc_regs;
  (match c.fc_mpu with
  | None -> ()
  | Some (b1, b2, sam) -> Mpu.configure m.M.mpu ~b1 ~b2 ~sam ~enable:true);
  m

let form_outcome m =
  match M.run ~fuel:form_fuel m with
  | r -> show_stop r
  | exception e -> "raised " ^ Printexc.to_string e

let form_lockstep =
  QCheck2.Test.make ~count:3000 ~name:"instruction forms: block engine = stepper"
    ~print:print_form_case gen_form_case (fun c ->
      let fast = form_machine c and slow = form_machine c in
      M.add_step_hook slow (fun _ -> ());
      let ra = form_outcome fast and rb = form_outcome slow in
      if ra <> rb then
        Printf.ksprintf failwith "stop fast=%s slow=%s" ra rb;
      compare_machines ~insn:fast.M.cpu.Cpu.insns fast slow;
      true)

(* A long-form immediate of a constant-generator value still carries
   an extension word, so the destination's extension word is the
   instruction's last: [MOV #1, 0x20(PC)] at [form_base] stores to
   [form_base + 4 + 0x20] on both engines. *)
let long_immediate_dst_ext () =
  let c =
    {
      fc_insns =
        [ (Op.Fmt1 (Op.MOV, W.W16, Op.S_immediate 1, Op.D_indexed (0, 0x20)),
           true) ];
      fc_regs = Array.init 15 (fun i -> if i = 0 then 0x2000 else 0);
      fc_mem_seed = 0;
      fc_mpu = None;
    }
  in
  let fast = form_machine c and slow = form_machine c in
  M.add_step_hook slow (fun _ -> ());
  Alcotest.(check string) "stop reason" (form_outcome slow) (form_outcome fast);
  compare_machines ~insn:fast.M.cpu.Cpu.insns fast slow;
  Alcotest.(check int) "stored at the extension word + 0x20" 1
    (M.mem_checked_read fast W.W16 (form_base + 0x24))

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
            Alcotest.test_case "mid-block MPU write revokes execute" `Quick
              midblock_revoke;
            Alcotest.test_case "mid-block MPU write keeps execute" `Quick
              midblock_keep;
            Alcotest.test_case "mid-block MPU enable splits an instruction"
              `Quick midblock_straddle;
            to_alcotest form_lockstep;
            Alcotest.test_case "long-form immediate, indexed destination"
              `Quick long_immediate_dst_ext;
          ] );
    ]
