open Opcode

let op2_code = function
  | MOV -> 0x4 | ADD -> 0x5 | ADDC -> 0x6 | SUBC -> 0x7 | SUB -> 0x8
  | CMP -> 0x9 | DADD -> 0xA | BIT -> 0xB | BIC -> 0xC | BIS -> 0xD
  | XOR -> 0xE | AND -> 0xF

let op1_code = function
  | RRC -> 0 | SWPB -> 1 | RRA -> 2 | SXT -> 3 | PUSH -> 4 | CALL -> 5

let cond_code = function
  | JNE -> 0 | JEQ -> 1 | JNC -> 2 | JC -> 3 | JN -> 4 | JGE -> 5
  | JL -> 6 | JMP -> 7

let check_reg r =
  if r < 0 || r > 15 then invalid_arg "Encode: register out of range"

(* Constant-generator encoding for an immediate, if one exists:
   (reg, as_bits).  R3: As=0 -> 0, As=1 -> 1, As=2 -> 2, As=3 -> -1;
   R2: As=2 -> 4, As=3 -> 8. *)
let cg_for_imm width n =
  let n = n land Word.mask width in
  if n = 0 then Some (3, 0)
  else if n = 1 then Some (3, 1)
  else if n = 2 then Some (3, 2)
  else if n = Word.mask width then Some (3, 3)
  else if n = 4 then Some (2, 2)
  else if n = 8 then Some (2, 3)
  else None

(* (reg, as_bits, extension word option) *)
let encode_src width = function
  | S_reg r ->
    check_reg r;
    if r = 3 then invalid_arg "Encode: R3 is not addressable as a register";
    (r, 0, None)
  | S_indexed (r, x) ->
    check_reg r;
    if r = 2 || r = 3 then
      invalid_arg "Encode: indexed mode on R2/R3 is a constant generator";
    (r, 1, Some (x land 0xFFFF))
  | S_absolute a -> (2, 1, Some (a land 0xFFFF))
  | S_indirect r ->
    check_reg r;
    if r = 2 || r = 3 then
      invalid_arg "Encode: indirect mode on R2/R3 is a constant generator";
    (r, 2, None)
  | S_indirect_inc r ->
    check_reg r;
    if r = 0 || r = 2 || r = 3 then
      invalid_arg "Encode: @R+ on R0/R2/R3 is immediate/constant mode";
    (r, 3, None)
  | S_immediate n -> (
    match cg_for_imm width n with
    | Some (r, a) -> (r, a, None)
    | None -> (0, 3, Some (n land 0xFFFF)))

let encode_src_no_cg width = function
  | S_immediate n -> (0, 3, Some (n land 0xFFFF))
  | other -> encode_src width other

let encode_dst = function
  | D_reg r ->
    (* writes to R3/CG2 are legal (a bit bucket); only reads alias the
       constant generator *)
    check_reg r;
    (r, 0, None)
  | D_indexed (r, x) ->
    check_reg r;
    if r = 2 || r = 3 then
      invalid_arg "Encode: indexed destination on R2/R3";
    (r, 1, Some (x land 0xFFFF))
  | D_absolute a -> (2, 1, Some (a land 0xFFFF))

let bw_bit = function Word.W8 -> 1 | Word.W16 -> 0

let encode ?(no_cg_imm = false) instr =
  let encode_src = if no_cg_imm then encode_src_no_cg else encode_src in
  match instr with
  | Fmt1 (op, w, src, dst) ->
    let sreg, abits, sext = encode_src w src in
    let dreg, adbit, dext = encode_dst dst in
    let word =
      (op2_code op lsl 12) lor (sreg lsl 8) lor (adbit lsl 7)
      lor (bw_bit w lsl 6) lor (abits lsl 4) lor dreg
    in
    (word :: Option.to_list sext) @ Option.to_list dext
  | Fmt2 (op, w, src) ->
    let sreg, abits, sext = encode_src w src in
    (match (op, src) with
    | (SWPB | SXT | CALL), _ when w = Word.W8 ->
      invalid_arg "Encode: byte mode invalid for SWPB/SXT/CALL"
    | (RRC | RRA | SWPB | SXT), S_immediate _ ->
      invalid_arg "Encode: immediate operand for a read-modify-write op"
    | _ -> ());
    let word =
      0x1000 lor (op1_code op lsl 7) lor (bw_bit w lsl 6) lor (abits lsl 4)
      lor sreg
    in
    word :: Option.to_list sext
  | Jump (c, off) ->
    if off < -512 || off > 511 then invalid_arg "Encode: jump offset range";
    0x2000 lor (cond_code c lsl 10) lor (off land 0x3FF) |> fun w -> [ w ]
  | Reti -> [ 0x1300 ]

let length_bytes ?no_cg_imm i = 2 * List.length (encode ?no_cg_imm i)
