type access = Afetch | Aread

type bus = {
  read : access -> Word.width -> int -> int;
  write : Word.width -> int -> int -> unit;
}

type t = {
  regs : Registers.t;
  bus : bus;
  mutable cycles : int;
  mutable insns : int;
}

let create bus = { regs = Registers.create (); bus; cycles = 0; insns = 0 }

(* A resolved operand: either a register or a memory address. *)
type place = P_reg of int | P_mem of int | P_imm of int

let read_place t width = function
  | P_reg r -> Word.norm width (Registers.get t.regs r)
  | P_mem a -> t.bus.read Aread width a
  | P_imm n -> Word.norm width n

let write_place t width value = function
  | P_reg r ->
    (* Byte writes to a register clear the upper byte (MSP430 rule). *)
    Registers.set t.regs r (Word.norm width value)
  | P_mem a -> t.bus.write width a value
  | P_imm _ -> invalid_arg "Cpu: write to immediate"

(* Resolve the source operand.  [ext_addr] is the address of this
   operand's extension word (for PC-relative indexed mode). *)
let resolve_src t width ~ext_addr = function
  | Opcode.S_reg r -> P_reg r
  | Opcode.S_indexed (r, x) ->
    (* x(PC) is symbolic mode: relative to the extension word. *)
    let base = if r = Registers.pc then ext_addr else Registers.get t.regs r in
    P_mem ((base + x) land 0xFFFF)
  | Opcode.S_absolute a -> P_mem a
  | Opcode.S_indirect r -> P_mem (Registers.get t.regs r)
  | Opcode.S_indirect_inc r ->
    let a = Registers.get t.regs r in
    let inc =
      (* SP stays word-aligned even for byte pops. *)
      if r = Registers.sp then 2
      else match width with Word.W8 -> 1 | Word.W16 -> 2
    in
    Registers.set t.regs r (a + inc);
    P_mem a
  | Opcode.S_immediate n -> P_imm n

let resolve_dst t ~ext_addr = function
  | Opcode.D_reg r -> P_reg r
  | Opcode.D_indexed (r, x) ->
    let base = if r = Registers.pc then ext_addr else Registers.get t.regs r in
    P_mem ((base + x) land 0xFFFF)
  | Opcode.D_absolute a -> P_mem a

let apply_flags t width (f : Alu.flags) =
  Registers.set_carry t.regs f.Alu.c;
  Registers.set_zero t.regs f.Alu.z;
  Registers.set_negative t.regs f.Alu.n;
  Registers.set_overflow t.regs f.Alu.v;
  ignore width

(* SP always moves down a full word, even for PUSH.B; the store itself
   is [width]-sized, leaving the high byte of the slot untouched. *)
let push t width v =
  let sp = Registers.get_sp t.regs - 2 in
  Registers.set_sp t.regs sp;
  t.bus.write width sp v

let push_word t v = push t Word.W16 v

let cond_true regs = function
  | Opcode.JNE -> not (Registers.zero regs)
  | Opcode.JEQ -> Registers.zero regs
  | Opcode.JNC -> not (Registers.carry regs)
  | Opcode.JC -> Registers.carry regs
  | Opcode.JN -> Registers.negative regs
  | Opcode.JGE ->
    Registers.negative regs = Registers.overflow regs
  | Opcode.JL -> Registers.negative regs <> Registers.overflow regs
  | Opcode.JMP -> true

let exec_fmt1 t op width src dst ~src_ext_addr ~dst_ext_addr =
  let splace = resolve_src t width ~ext_addr:src_ext_addr src in
  let sval = read_place t width splace in
  let dplace = resolve_dst t ~ext_addr:dst_ext_addr dst in
  let dval =
    if op = Opcode.MOV then 0 else read_place t width dplace
  in
  let carry_in = Registers.carry t.regs in
  let value, flags = Alu.fmt1 op width ~carry_in ~src:sval ~dst:dval in
  if Opcode.writes_back op then write_place t width value dplace;
  match flags with Some f -> apply_flags t width f | None -> ()

let exec_fmt2 t op width src ~src_ext_addr =
  let splace = resolve_src t width ~ext_addr:src_ext_addr src in
  match op with
  | Opcode.RRC ->
    let v = read_place t width splace in
    let value, f = Alu.rrc width ~carry_in:(Registers.carry t.regs) v in
    write_place t width value splace;
    apply_flags t width f
  | Opcode.RRA ->
    let v = read_place t width splace in
    let value, f = Alu.rra width v in
    write_place t width value splace;
    apply_flags t width f
  | Opcode.SWPB ->
    let v = read_place t Word.W16 splace in
    write_place t Word.W16 (Word.swap_bytes v) splace
  | Opcode.SXT ->
    let v = read_place t Word.W16 splace in
    let value, f = Alu.sxt v in
    write_place t Word.W16 value splace;
    apply_flags t Word.W16 f
  | Opcode.PUSH ->
    let v = read_place t width splace in
    push t width v
  | Opcode.CALL ->
    let target = read_place t Word.W16 splace in
    push_word t (Registers.get_pc t.regs);
    Registers.set_pc t.regs target

let exec_reti t =
  let sp = Registers.get_sp t.regs in
  let sr = t.bus.read Aread Word.W16 sp in
  let pc = t.bus.read Aread Word.W16 (sp + 2) in
  Registers.set_sp t.regs (sp + 4);
  Registers.set t.regs Registers.sr sr;
  Registers.set_pc t.regs pc

let step t =
  let pc0 = Registers.get_pc t.regs in
  let fetch a = t.bus.read Afetch Word.W16 a in
  let instr, len = Decode.decode ~fetch ~addr:pc0 in
  Registers.set_pc t.regs (pc0 + len);
  (match instr with
  | Opcode.Fmt1 (op, width, src, dst) ->
    let src_ext_addr = pc0 + 2 in
    let dst_ext_addr =
      pc0 + 2 + if Encode.src_needs_ext width src then 2 else 0
    in
    exec_fmt1 t op width src dst ~src_ext_addr ~dst_ext_addr
  | Opcode.Fmt2 (op, width, src) ->
    exec_fmt2 t op width src ~src_ext_addr:(pc0 + 2)
  | Opcode.Jump (c, off) ->
    if cond_true t.regs c then Registers.set_pc t.regs (pc0 + 2 + (2 * off))
  | Opcode.Reti -> exec_reti t);
  t.cycles <- t.cycles + Cycles.cycles instr;
  t.insns <- t.insns + 1;
  instr
