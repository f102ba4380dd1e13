type width = W8 | W16

let bits = function W8 -> 8 | W16 -> 16
let mask = function W8 -> 0xFF | W16 -> 0xFFFF
let sign_bit = function W8 -> 0x80 | W16 -> 0x8000
let norm w v = v land mask w
let is_negative w v = norm w v land sign_bit w <> 0

let to_signed w v =
  let v = norm w v in
  if v land sign_bit w <> 0 then v - (mask w + 1) else v

let of_signed w v = norm w v

type flags = { value : int; carry : bool; overflow : bool }

let add w ?(carry_in = false) a b =
  let a = norm w a and b = norm w b in
  let raw = a + b + if carry_in then 1 else 0 in
  let value = norm w raw in
  let carry = raw > mask w in
  let sa = is_negative w a and sb = is_negative w b and sr = is_negative w value in
  let overflow = sa = sb && sr <> sa in
  { value; carry; overflow }

let sub w ?(borrow_in = false) dst src =
  (* dst - src == dst + (lnot src) + 1; SUBC with C=0 adds 0 instead. *)
  add w ~carry_in:(not borrow_in) dst (norm w (lnot src))

let dadd w ?(carry_in = false) a b =
  let digits = bits w / 4 in
  let rec loop i carry acc =
    if i >= digits then (acc, carry)
    else
      let da = (a lsr (4 * i)) land 0xF and db = (b lsr (4 * i)) land 0xF in
      let s = da + db + if carry then 1 else 0 in
      let s, carry = if s > 9 then (s - 10, true) else (s, false) in
      loop (i + 1) carry (acc lor (s lsl (4 * i)))
  in
  let value, carry = loop 0 carry_in 0 in
  { value; carry; overflow = false }

let swap_bytes v =
  let v = v land 0xFFFF in
  ((v land 0xFF) lsl 8) lor (v lsr 8)

let sign_extend_byte v =
  let b = v land 0xFF in
  if b land 0x80 <> 0 then b lor 0xFF00 else b

