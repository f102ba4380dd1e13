(* Every operation returns one packed int, so neither the reference
   stepper nor the compiled micro-ops allocate for arithmetic:

     bits  0..15  result value, normalised to the operation width
     bits 16..24  the new C/Z/N/V at their status-register positions
     bit  28      set when the operation updates the flags at all

   Operands are normalised here, so callers may pass raw register
   contents. *)

let flags_shift = 16
let status_mask = 0x0107 (* C, Z, N and V in SR *)
let has_flags = 1 lsl 28

let value r = r land 0xFFFF
let carry r = r land (0x0001 lsl flags_shift) <> 0
let overflow r = r land (0x0100 lsl flags_shift) <> 0

let apply_flags sr r =
  if r land has_flags = 0 then sr
  else sr land lnot status_mask lor ((r lsr flags_shift) land status_mask)

(* [sh] is the sign-bit position (7 or 15); [c] and [v] are 0 or 1. *)
let[@inline] pack sh value c v =
  value lor has_flags
  lor ((c
       lor (if value = 0 then 0x0002 else 0)
       lor (((value lsr sh) land 1) lsl 2)
       lor (v lsl 8))
      lsl flags_shift)

let[@inline] add m sh c d s =
  let d = d land m and s = s land m in
  let raw = d + s + c in
  let r = raw land m in
  pack sh r (raw lsr (sh + 1)) ((((d lxor r) land (s lxor r)) lsr sh) land 1)

(* dst - src == dst + (lnot src) + 1; SUBC with C=0 adds 0 instead. *)
let[@inline] sub m sh c d s = add m sh c d (lnot s)

let dadd m sh c d s =
  let d = d land m and s = s land m in
  let acc = ref 0 and carry = ref c in
  for i = 0 to (sh / 4) do
    let k = 4 * i in
    let sum = ((d lsr k) land 0xF) + ((s lsr k) land 0xF) + !carry in
    if sum > 9 then begin
      acc := !acc lor ((sum - 10) lsl k);
      carry := 1
    end
    else begin
      acc := !acc lor (sum lsl k);
      carry := 0
    end
  done;
  pack sh (!acc land m) !carry 0

(* AND/BIT/XOR/SXT: C is "result non-zero". *)
let[@inline] logic sh r v = pack sh r (if r = 0 then 0 else 1) v

(* Specialised per operation and width: [fmt1 op w] is a statically
   allocated function, so selecting it allocates nothing either. *)
let mov16 _ s _ = s land 0xFFFF
let mov8 _ s _ = s land 0xFF
let add16 _ s d = add 0xFFFF 15 0 d s
let add8 _ s d = add 0xFF 7 0 d s
let addc16 c s d = add 0xFFFF 15 c d s
let addc8 c s d = add 0xFF 7 c d s
let sub16 _ s d = sub 0xFFFF 15 1 d s
let sub8 _ s d = sub 0xFF 7 1 d s
let subc16 c s d = sub 0xFFFF 15 c d s
let subc8 c s d = sub 0xFF 7 c d s
let dadd16 c s d = dadd 0xFFFF 15 c d s
let dadd8 c s d = dadd 0xFF 7 c d s
let and16 _ s d = logic 15 (s land d land 0xFFFF) 0
let and8 _ s d = logic 7 (s land d land 0xFF) 0
let xor16 _ s d =
  let s = s land 0xFFFF and d = d land 0xFFFF in
  logic 15 (s lxor d) (((s land d) lsr 15) land 1)
let xor8 _ s d =
  let s = s land 0xFF and d = d land 0xFF in
  logic 7 (s lxor d) (((s land d) lsr 7) land 1)
let bic16 _ s d = d land lnot s land 0xFFFF
let bic8 _ s d = d land lnot s land 0xFF
let bis16 _ s d = (d lor s) land 0xFFFF
let bis8 _ s d = (d lor s) land 0xFF

let fmt1 op width =
  match (op, width) with
  | Opcode.MOV, Word.W16 -> mov16
  | Opcode.MOV, Word.W8 -> mov8
  | Opcode.ADD, Word.W16 -> add16
  | Opcode.ADD, Word.W8 -> add8
  | Opcode.ADDC, Word.W16 -> addc16
  | Opcode.ADDC, Word.W8 -> addc8
  | (Opcode.SUB | Opcode.CMP), Word.W16 -> sub16
  | (Opcode.SUB | Opcode.CMP), Word.W8 -> sub8
  | Opcode.SUBC, Word.W16 -> subc16
  | Opcode.SUBC, Word.W8 -> subc8
  | Opcode.DADD, Word.W16 -> dadd16
  | Opcode.DADD, Word.W8 -> dadd8
  | (Opcode.AND | Opcode.BIT), Word.W16 -> and16
  | (Opcode.AND | Opcode.BIT), Word.W8 -> and8
  | Opcode.XOR, Word.W16 -> xor16
  | Opcode.XOR, Word.W8 -> xor8
  | Opcode.BIC, Word.W16 -> bic16
  | Opcode.BIC, Word.W8 -> bic8
  | Opcode.BIS, Word.W16 -> bis16
  | Opcode.BIS, Word.W8 -> bis8

let rrc16 c v =
  let v = v land 0xFFFF in
  pack 15 ((v lsr 1) lor (c lsl 15)) (v land 1) 0
let rrc8 c v =
  let v = v land 0xFF in
  pack 7 ((v lsr 1) lor (c lsl 7)) (v land 1) 0
let rra16 _ v =
  let v = v land 0xFFFF in
  pack 15 ((v lsr 1) lor (v land 0x8000)) (v land 1) 0
let rra8 _ v =
  let v = v land 0xFF in
  pack 7 ((v lsr 1) lor (v land 0x80)) (v land 1) 0
let swpb _ v = Word.swap_bytes v
let sxt _ v = logic 15 (Word.sign_extend_byte v) 0

let fmt2 op width =
  match (op, width) with
  | Opcode.RRC, Word.W16 -> rrc16
  | Opcode.RRC, Word.W8 -> rrc8
  | Opcode.RRA, Word.W16 -> rra16
  | Opcode.RRA, Word.W8 -> rra8
  | Opcode.SWPB, _ -> swpb
  | Opcode.SXT, _ -> sxt
  | (Opcode.PUSH | Opcode.CALL), _ -> invalid_arg "Alu.fmt2: not an ALU op"
