type access = Exec | Dread | Dwrite
type segment = Seg_info | Seg1 | Seg2 | Seg3
type check_result = Allowed | Violation of segment

type t = {
  mutable ctl0 : int; (* MPUENA / MPULOCK / MPUSEGIE bits *)
  mutable ctl1 : int; (* violation interrupt flags *)
  mutable segb1 : int; (* boundary register: address / 16 *)
  mutable segb2 : int;
  mutable sam : int; (* nibble per segment: RE/WE/XE/VS *)
  mutable gen : int; (* configuration generation, bumped on any change *)
  (* Compiled view: the verdict state derived from the registers above,
     recomputed by [compile] on every configuration change so that
     [check] is a few int compares. *)
  mutable b1 : int; (* effective boundaries (snapped and clamped) *)
  mutable b2 : int;
  mutable b3 : int; (* start of segment 3: the larger boundary *)
  mutable p1 : int; (* permission nibble per segment *)
  mutable p2 : int;
  mutable p3 : int;
  mutable pinfo : int;
}

let ctl0_addr = 0x05A0
let ctl1_addr = 0x05A2
let segb2_addr = 0x05A4
let segb1_addr = 0x05A6
let sam_addr = 0x05A8

let bit_ena = 0x0001
let bit_lock = 0x0002
let password = 0xA5
let granule = 0x400

let default_sam =
  (* Power-up: everything readable/writable/executable. *)
  0x7777

let align_boundary raw =
  let addr = (raw lsl 4) land 0xFFFF land lnot (granule - 1) in
  (* Boundaries are meaningful only inside main FRAM. *)
  if addr < Memory_map.fram_start then Memory_map.fram_start
  else if addr > Memory_map.fram_limit then Memory_map.fram_limit
  else addr

(* Every configuration change ends here: recompute the compiled view
   from the register cells and bump the generation. *)
let compile t =
  t.b1 <- align_boundary t.segb1;
  t.b2 <- align_boundary t.segb2;
  t.b3 <- (if t.b1 > t.b2 then t.b1 else t.b2);
  t.p1 <- t.sam land 0xF;
  t.p2 <- (t.sam lsr 4) land 0xF;
  t.p3 <- (t.sam lsr 8) land 0xF;
  t.pinfo <- (t.sam lsr 12) land 0xF;
  t.gen <- t.gen + 1

let create () =
  let t =
    { ctl0 = 0; ctl1 = 0; segb1 = 0; segb2 = 0; sam = default_sam; gen = 0;
      b1 = 0; b2 = 0; b3 = 0; p1 = 0; p2 = 0; p3 = 0; pinfo = 0 }
  in
  compile t;
  t

let reset t =
  t.ctl0 <- 0;
  t.ctl1 <- 0;
  t.segb1 <- 0;
  t.segb2 <- 0;
  t.sam <- default_sam;
  compile t

let gen t = t.gen

let handles addr =
  addr >= ctl0_addr && addr <= sam_addr && addr land 1 = 0

let enabled t = t.ctl0 land bit_ena <> 0
let locked t = t.ctl0 land bit_lock <> 0

type write_result = Write_ok | Bad_password | Locked_ignored

let mmio_write t addr v =
  if addr = ctl0_addr || addr = ctl1_addr then
    (* Control registers demand the 0xA5 password in the high byte. *)
    if (v lsr 8) land 0xFF <> password then Bad_password
    else if locked t && addr = ctl0_addr then Locked_ignored
    else begin
      if addr = ctl0_addr then t.ctl0 <- v land 0xFF
      else t.ctl1 <- t.ctl1 land lnot (v land 0xFF);
      compile t;
      Write_ok
    end
  else if locked t then Locked_ignored
  else begin
    (if addr = segb2_addr then t.segb2 <- v land 0xFFF
     else if addr = segb1_addr then t.segb1 <- v land 0xFFF
     else if addr = sam_addr then t.sam <- v land 0xFFFF);
    compile t;
    Write_ok
  end

let mmio_read t addr =
  if addr = ctl0_addr then 0x9600 lor t.ctl0
  else if addr = ctl1_addr then t.ctl1
  else if addr = segb2_addr then t.segb2
  else if addr = segb1_addr then t.segb1
  else if addr = sam_addr then t.sam
  else 0

let boundary1 t = t.b1
let boundary2 t = t.b2

let in_fram addr = addr >= Memory_map.fram_start && addr < Memory_map.fram_limit

let in_info addr =
  addr >= Memory_map.info_mem_start && addr < Memory_map.info_mem_limit

let segment_of_addr t addr =
  if in_fram addr then
    if addr < t.b1 then Some Seg1
    else if addr < t.b2 then Some Seg2
    else Some Seg3
  else if in_info addr then Some Seg_info
  else None

let access_bit = function Dread -> 0x1 | Dwrite -> 0x2 | Exec -> 0x4

(* Constant constructors: a refusal allocates nothing. *)
let refuse t seg =
  match seg with
  | Seg1 ->
    t.ctl1 <- t.ctl1 lor 0x0001;
    Violation Seg1
  | Seg2 ->
    t.ctl1 <- t.ctl1 lor 0x0002;
    Violation Seg2
  | Seg3 ->
    t.ctl1 <- t.ctl1 lor 0x0004;
    Violation Seg3
  | Seg_info ->
    t.ctl1 <- t.ctl1 lor 0x0008;
    Violation Seg_info

let check t access addr =
  if not (enabled t) then Allowed
  else
    let bit = access_bit access in
    if in_fram addr then
      if addr < t.b1 then
        if t.p1 land bit <> 0 then Allowed else refuse t Seg1
      else if addr < t.b2 then
        if t.p2 land bit <> 0 then Allowed else refuse t Seg2
      else if t.p3 land bit <> 0 then Allowed
      else refuse t Seg3
    else if in_info addr then
      if t.pinfo land bit <> 0 then Allowed else refuse t Seg_info
    else Allowed

(* Does segment [\[a, b)] with permission nibble [p] refuse execution
   of an even address in [\[lo, hi)]?  [lo], [a] and [b] are even, so
   a non-empty overlap holds an even address. *)
let refuses_exec p a b lo hi = p land 0x4 = 0 && a < b && lo < b && a < hi

let exec_span_ok t lo hi =
  (not (enabled t))
  ||
  let lo = (lo + 1) land lnot 1 in
  lo >= hi
  || not
    (refuses_exec t.p1 Memory_map.fram_start t.b1 lo hi
    || refuses_exec t.p2 t.b1 t.b2 lo hi
    || refuses_exec t.p3 t.b3 Memory_map.fram_limit lo hi
    || refuses_exec t.pinfo Memory_map.info_mem_start
         Memory_map.info_mem_limit lo hi)

let violation_flags t = t.ctl1

type raw_reg = Raw_ctl0 | Raw_ctl1 | Raw_segb1 | Raw_segb2 | Raw_sam

let raw_reg_name = function
  | Raw_ctl0 -> "MPUCTL0"
  | Raw_ctl1 -> "MPUCTL1"
  | Raw_segb1 -> "MPUSEGB1"
  | Raw_segb2 -> "MPUSEGB2"
  | Raw_sam -> "MPUSAM"

let raw_get t = function
  | Raw_ctl0 -> t.ctl0
  | Raw_ctl1 -> t.ctl1
  | Raw_segb1 -> t.segb1
  | Raw_segb2 -> t.segb2
  | Raw_sam -> t.sam

(* Fault-injection backdoor: models a physical upset of the register
   cell itself, so it bypasses the password and the lock on purpose. *)
let raw_set t reg v =
  (match reg with
  | Raw_ctl0 -> t.ctl0 <- v land 0xFF
  | Raw_ctl1 -> t.ctl1 <- v land 0xFF
  | Raw_segb1 -> t.segb1 <- v land 0xFFF
  | Raw_segb2 -> t.segb2 <- v land 0xFFF
  | Raw_sam -> t.sam <- v land 0xFFFF);
  compile t

let configure t ~b1 ~b2 ~sam ~enable =
  if not (locked t) then begin
    t.segb1 <- (b1 lsr 4) land 0xFFF;
    t.segb2 <- (b2 lsr 4) land 0xFFF;
    t.sam <- sam land 0xFFFF;
    t.ctl0 <- (if enable then bit_ena else 0);
    compile t
  end

let sam_bits ~seg1 ~seg2 ~seg3 ?(info = "") () =
  let nib s =
    let b = ref 0 in
    String.iter
      (fun c ->
        match c with
        | 'r' -> b := !b lor 0x1
        | 'w' -> b := !b lor 0x2
        | 'x' -> b := !b lor 0x4
        | _ -> invalid_arg "Mpu.sam_bits")
      s;
    !b
  in
  nib seg1 lor (nib seg2 lsl 4) lor (nib seg3 lsl 8) lor (nib info lsl 12)

let pp ppf t =
  Format.fprintf ppf
    "MPU{ena=%b lock=%b b1=%04X b2=%04X sam=%04X ifg=%X}" (enabled t)
    (locked t) (boundary1 t) (boundary2 t) t.sam t.ctl1
