type t = int array

let pc = 0
let sp = 1
let sr = 2

let create () = Array.make 16 0
let get t n = t.(n)
let set t n v = t.(n) <- v land 0xFFFF
let get_pc t = t.(pc)
let set_pc t v = set t pc v
let get_sp t = t.(sp)
let set_sp t v = set t sp v

let bit_c = 0x0001
let bit_z = 0x0002
let bit_n = 0x0004
let bit_v = 0x0100

let flag t bit = t.(sr) land bit <> 0

let set_flag t bit b =
  t.(sr) <- (if b then t.(sr) lor bit else t.(sr) land lnot bit) land 0xFFFF

let carry t = flag t bit_c
let zero t = flag t bit_z
let negative t = flag t bit_n
let overflow t = flag t bit_v
let set_carry t b = set_flag t bit_c b
let set_zero t b = set_flag t bit_z b
let set_negative t b = set_flag t bit_n b
let set_overflow t b = set_flag t bit_v b

let copy = Array.copy

let pp ppf t =
  for i = 0 to 15 do
    Format.fprintf ppf "R%-2d=%04X%s" i t.(i) (if i = 7 then "\n" else " ")
  done
