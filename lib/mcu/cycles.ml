open Opcode

type src_class = C_reg | C_indirect | C_indirect_inc | C_imm | C_indexed

let classify_src width = function
  | S_reg _ -> C_reg
  | S_indirect _ -> C_indirect
  | S_indirect_inc _ -> C_indirect_inc
  | S_immediate n ->
    (* Constant-generator immediates behave like register sources. *)
    let n = n land Word.mask width in
    if n = 0 || n = 1 || n = 2 || n = 4 || n = 8 || n = Word.mask width then
      C_reg
    else C_imm
  | S_indexed _ | S_absolute _ -> C_indexed

type dst_class = D_r | D_pc | D_mem

let classify_dst = function
  | D_reg 0 -> D_pc
  | D_reg _ -> D_r
  | D_indexed _ | D_absolute _ -> D_mem

let fmt1_table src dst =
  match (src, dst) with
  | C_reg, D_r -> 1
  | C_reg, D_pc -> 2
  | C_reg, D_mem -> 4
  | C_indirect, D_r -> 2
  | C_indirect, D_pc -> 2
  | C_indirect, D_mem -> 5
  | C_indirect_inc, D_r -> 2
  | C_indirect_inc, D_pc -> 3
  | C_indirect_inc, D_mem -> 5
  | C_imm, D_r -> 2
  | C_imm, D_pc -> 3
  | C_imm, D_mem -> 5
  | C_indexed, D_r -> 3
  | C_indexed, D_pc -> 3
  | C_indexed, D_mem -> 6

let fmt2_table op src =
  match op with
  | RRC | RRA | SWPB | SXT -> (
    match src with
    | C_reg -> 1
    | C_indirect | C_indirect_inc -> 3
    | C_imm -> 3 (* unreachable: rejected by the encoder *)
    | C_indexed -> 4)
  | PUSH -> (
    match src with
    | C_reg -> 3
    | C_indirect -> 4
    | C_indirect_inc -> 4
    | C_imm -> 4
    | C_indexed -> 5)
  | CALL -> (
    match src with
    | C_reg -> 4
    | C_indirect -> 4
    | C_indirect_inc -> 5
    | C_imm -> 5
    | C_indexed -> 5)

let cycles = function
  | Fmt1 (_, w, src, dst) ->
    fmt1_table (classify_src w src) (classify_dst dst)
  | Fmt2 (op, w, src) -> fmt2_table op (classify_src w src)
  | Jump _ -> 2
  | Reti -> 5
