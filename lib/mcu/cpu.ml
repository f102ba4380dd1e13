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

(* ------------------------------------------------------------------ *)
(* Reference stepper: fetch, decode and interpret one instruction.    *)

(* A resolved operand, packed into an int so resolving allocates
   nothing: a memory address (0..0xFFFF), [reg_place + r] for a
   register, or [imm_place + n] for an immediate. *)
let reg_place = 0x10000
let imm_place = 0x20000

let read_place t width p =
  if p < reg_place then t.bus.read Aread width p
  else if p < imm_place then
    Word.norm width (Registers.get t.regs (p - reg_place))
  else Word.norm width (p - imm_place)

let write_place t width value p =
  if p < reg_place then t.bus.write width p value
  else if p < imm_place then
    (* Byte writes to a register clear the upper byte (MSP430 rule). *)
    Registers.set t.regs (p - reg_place) (Word.norm width value)
  else invalid_arg "Cpu: write to immediate"

(* SP stays word-aligned even for byte pops. *)
let autoinc width r =
  if r = Registers.sp then 2 else match width with Word.W8 -> 1 | Word.W16 -> 2

(* Resolve the source operand.  [ext_addr] is the address of this
   operand's extension word (for PC-relative indexed mode). *)
let resolve_src t width ~ext_addr = function
  | Opcode.S_reg r -> reg_place + r
  | Opcode.S_indexed (r, x) ->
    (* x(PC) is symbolic mode: relative to the extension word. *)
    let base = if r = Registers.pc then ext_addr else Registers.get t.regs r in
    (base + x) land 0xFFFF
  | Opcode.S_absolute a -> a
  | Opcode.S_indirect r -> Registers.get t.regs r
  | Opcode.S_indirect_inc r ->
    let a = Registers.get t.regs r in
    Registers.set t.regs r (a + autoinc width r);
    a
  | Opcode.S_immediate n -> imm_place + (n land 0xFFFF)

let resolve_dst t ~ext_addr = function
  | Opcode.D_reg r -> reg_place + r
  | Opcode.D_indexed (r, x) ->
    let base = if r = Registers.pc then ext_addr else Registers.get t.regs r in
    (base + x) land 0xFFFF
  | Opcode.D_absolute a -> a

let carry_bit regs = if Registers.carry regs then 1 else 0

let apply_flags t r =
  Registers.set t.regs Registers.sr
    (Alu.apply_flags (Registers.get t.regs Registers.sr) r)

(* SP always moves down a full word, even for PUSH.B; the store itself
   is [width]-sized, leaving the high byte of the slot untouched. *)
let push t width v =
  let sp = Registers.get_sp t.regs - 2 in
  Registers.set_sp t.regs sp;
  t.bus.write width sp v

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
  let r = Alu.fmt1 op width (carry_bit t.regs) sval dval in
  if Opcode.writes_back op then write_place t width (Alu.value r) dplace;
  apply_flags t r

let exec_fmt2 t op width src ~src_ext_addr =
  let splace = resolve_src t width ~ext_addr:src_ext_addr src in
  match op with
  | Opcode.RRC | Opcode.RRA ->
    let v = read_place t width splace in
    let r = Alu.fmt2 op width (carry_bit t.regs) v in
    write_place t width (Alu.value r) splace;
    apply_flags t r
  | Opcode.SWPB | Opcode.SXT ->
    let v = read_place t Word.W16 splace in
    let r = Alu.fmt2 op Word.W16 0 v in
    write_place t Word.W16 (Alu.value r) splace;
    apply_flags t r
  | Opcode.PUSH ->
    let v = read_place t width splace in
    push t width v
  | Opcode.CALL ->
    let target = read_place t Word.W16 splace in
    push t Word.W16 (Registers.get_pc t.regs);
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
    (* the source's extension word follows the opcode word; the
       destination's, when it has one, is the instruction's last *)
    exec_fmt1 t op width src dst ~src_ext_addr:(pc0 + 2)
      ~dst_ext_addr:(pc0 + len - 2)
  | Opcode.Fmt2 (op, width, src) ->
    exec_fmt2 t op width src ~src_ext_addr:(pc0 + 2)
  | Opcode.Jump (c, off) ->
    if cond_true t.regs c then Registers.set_pc t.regs (pc0 + 2 + (2 * off))
  | Opcode.Reti -> exec_reti t);
  t.cycles <- t.cycles + Cycles.cycles instr;
  t.insns <- t.insns + 1;
  instr

(* ------------------------------------------------------------------ *)
(* Compiled micro-ops.                                                *)
(*                                                                    *)
(* [compile] turns one decoded instruction into a closure specialised *)
(* to its operation, width and operand modes, with immediates,        *)
(* extension-word addresses and the jump target folded in.  Running   *)
(* it does what [step] does after decode, in the same order: PC past  *)
(* the instruction, the source (autoincrement first), the             *)
(* destination, the ALU, write-back, then flags.  Memory is reached   *)
(* only through the bus, so MPU checks, MMIO, statistics and faults   *)
(* happen exactly where the stepper has them.  The closures allocate  *)
(* nothing and index the register file directly: under [-opaque] a    *)
(* call to a one-line helper in another module is never inlined.      *)
(* ------------------------------------------------------------------ *)

(* Literal register numbers, so the closures index with constants. *)
let r_pc = 0
let r_sp = 1
let r_sr = 2

let has_flags = Alu.has_flags
let flags_shift = Alu.flags_shift
let status_mask = Alu.status_mask

let[@inline] set_flags regs r =
  if r land has_flags <> 0 then
    regs.(r_sr) <-
      regs.(r_sr) land lnot status_mask lor ((r lsr flags_shift) land status_mask)

(* An operand resolved at compile time.  Memory operands keep only
   what varies at run time: a fixed address (absolute, or PC-relative
   against its extension word), a base register and offset (@Rn is
   offset 0), or an autoincremented register and its step. *)
type operand =
  | Reg of int
  | Imm of int
  | Fixed of int
  | Based of int * int
  | Post_inc of int * int

(* The step follows the instruction's own width even where the access
   does not (CALL.B, SWPB.B). *)
let src_operand width ~ext = function
  | Opcode.S_reg r -> Reg r
  | Opcode.S_immediate n -> Imm n
  | Opcode.S_absolute a -> Fixed a
  | Opcode.S_indexed (r, x) when r = Registers.pc ->
    Fixed ((ext + x) land 0xFFFF)
  | Opcode.S_indexed (r, x) -> Based (r, x)
  | Opcode.S_indirect r -> Based (r, 0)
  | Opcode.S_indirect_inc r -> Post_inc (r, autoinc width r)

let dst_operand ~ext = function
  | Opcode.D_reg r -> Reg r
  | Opcode.D_absolute a -> Fixed a
  | Opcode.D_indexed (r, x) when r = Registers.pc ->
    Fixed ((ext + x) land 0xFFFF)
  | Opcode.D_indexed (r, x) -> Based (r, x)

(* A source operand's value, normalised to [width]. *)
let src_value width : operand -> t -> int = function
  | Reg r ->
    let m = Word.mask width in
    fun t -> t.regs.(r) land m
  | Imm n ->
    let v = n land Word.mask width in
    fun _ -> v
  | Fixed a -> fun t -> t.bus.read Aread width a
  | Based (r, x) ->
    fun t -> t.bus.read Aread width ((t.regs.(r) + x) land 0xFFFF)
  | Post_inc (r, step) ->
    fun t ->
      let regs = t.regs in
      let a = regs.(r) in
      regs.(r) <- (a + step) land 0xFFFF;
      t.bus.read Aread width a

(* A memory operand's address, autoincrement applied — for the
   read-modify-write single-operand forms. *)
let operand_addr : operand -> t -> int = function
  | Fixed a -> fun _ -> a
  | Based (r, x) -> fun t -> (t.regs.(r) + x) land 0xFFFF
  | Post_inc (r, step) ->
    fun t ->
      let regs = t.regs in
      let a = regs.(r) in
      regs.(r) <- (a + step) land 0xFFFF;
      a
  | Reg _ | Imm _ -> invalid_arg "Cpu.operand_addr"

let compile_fmt1 op width src dst ~next ~src_ext ~dst_ext =
  let s = src_value width (src_operand width ~ext:src_ext src) in
  let dst = dst_operand ~ext:dst_ext dst in
  if op = Opcode.MOV then
    match dst with
    | Reg d ->
      fun t ->
        t.regs.(r_pc) <- next;
        t.regs.(d) <- s t
    | Fixed a ->
      fun t ->
        t.regs.(r_pc) <- next;
        t.bus.write width a (s t)
    | Based (r, x) ->
      fun t ->
        t.regs.(r_pc) <- next;
        let v = s t in
        t.bus.write width ((t.regs.(r) + x) land 0xFFFF) v
    | Imm _ | Post_inc _ -> invalid_arg "Cpu.compile: destination"
  else
    let f = Alu.fmt1 op width and wb = Opcode.writes_back op in
    match dst with
    | Reg d ->
      fun t ->
        let regs = t.regs in
        regs.(r_pc) <- next;
        let v = s t in
        let r = f (regs.(r_sr) land 1) v regs.(d) in
        if wb then regs.(d) <- r land 0xFFFF;
        set_flags regs r
    | Fixed a ->
      fun t ->
        let regs = t.regs in
        regs.(r_pc) <- next;
        let v = s t in
        let r = f (regs.(r_sr) land 1) v (t.bus.read Aread width a) in
        if wb then t.bus.write width a (r land 0xFFFF);
        set_flags regs r
    | Based (b, x) ->
      fun t ->
        let regs = t.regs in
        regs.(r_pc) <- next;
        let v = s t in
        let a = (regs.(b) + x) land 0xFFFF in
        let r = f (regs.(r_sr) land 1) v (t.bus.read Aread width a) in
        if wb then t.bus.write width a (r land 0xFFFF);
        set_flags regs r
    | Imm _ | Post_inc _ -> invalid_arg "Cpu.compile: destination"

let compile_fmt2 op width src ~next ~ext =
  let src = src_operand width ~ext src in
  match op with
  | Opcode.PUSH ->
    let s = src_value width src in
    fun t ->
      let regs = t.regs in
      regs.(r_pc) <- next;
      let v = s t in
      let sp = (regs.(r_sp) - 2) land 0xFFFF in
      regs.(r_sp) <- sp;
      t.bus.write width sp v
  | Opcode.CALL ->
    let s = src_value Word.W16 src in
    fun t ->
      let regs = t.regs in
      regs.(r_pc) <- next;
      let target = s t in
      let sp = (regs.(r_sp) - 2) land 0xFFFF in
      regs.(r_sp) <- sp;
      t.bus.write Word.W16 sp regs.(r_pc);
      regs.(r_pc) <- target
  | Opcode.RRC | Opcode.RRA | Opcode.SWPB | Opcode.SXT -> (
    (* Read-modify-write in place; SWPB and SXT are word-only. *)
    let width =
      match op with Opcode.SWPB | Opcode.SXT -> Word.W16 | _ -> width
    in
    let f = Alu.fmt2 op width and m = Word.mask width in
    match src with
    | Reg r ->
      fun t ->
        let regs = t.regs in
        regs.(r_pc) <- next;
        let res = f (regs.(r_sr) land 1) (regs.(r) land m) in
        regs.(r) <- res land m;
        set_flags regs res
    | Imm _ ->
      fun t ->
        t.regs.(r_pc) <- next;
        invalid_arg "Cpu: write to immediate"
    | Fixed _ | Based _ | Post_inc _ ->
      let addr = operand_addr src in
      fun t ->
        let regs = t.regs in
        regs.(r_pc) <- next;
        let a = addr t in
        let v = t.bus.read Aread width a in
        let res = f (regs.(r_sr) land 1) v in
        t.bus.write width a (res land m);
        set_flags regs res)

(* JGE/JL compare N (SR bit 2) with V (SR bit 8). *)
let compile_jump c ~next ~target =
  let on_flag bit want =
    fun t ->
      let regs = t.regs in
      regs.(r_pc) <- (if regs.(r_sr) land bit = want then target else next)
  in
  let on_n_xor_v want =
    fun t ->
      let regs = t.regs in
      let sr = regs.(r_sr) in
      regs.(r_pc) <-
        (if ((sr lsr 2) lxor (sr lsr 8)) land 1 = want then target else next)
  in
  match c with
  | Opcode.JMP -> fun t -> t.regs.(r_pc) <- target
  | Opcode.JNE -> on_flag 0x0002 0
  | Opcode.JEQ -> on_flag 0x0002 0x0002
  | Opcode.JNC -> on_flag 0x0001 0
  | Opcode.JC -> on_flag 0x0001 0x0001
  | Opcode.JN -> on_flag 0x0004 0x0004
  | Opcode.JGE -> on_n_xor_v 0
  | Opcode.JL -> on_n_xor_v 1

let compile ~pc ~len instr =
  let next = (pc + len) land 0xFFFF in
  match instr with
  | Opcode.Fmt1 (op, width, src, dst) ->
    compile_fmt1 op width src dst ~next ~src_ext:(pc + 2)
      ~dst_ext:(pc + len - 2)
  | Opcode.Fmt2 (op, width, src) -> compile_fmt2 op width src ~next ~ext:(pc + 2)
  | Opcode.Jump (c, off) ->
    compile_jump c ~next ~target:((pc + 2 + (2 * off)) land 0xFFFF)
  | Opcode.Reti ->
    fun t ->
      let regs = t.regs in
      regs.(r_pc) <- next;
      let sp = regs.(r_sp) in
      let sr = t.bus.read Aread Word.W16 sp in
      let pc = t.bus.read Aread Word.W16 (sp + 2) in
      regs.(r_sp) <- (sp + 4) land 0xFFFF;
      regs.(r_sr) <- sr;
      regs.(r_pc) <- pc
