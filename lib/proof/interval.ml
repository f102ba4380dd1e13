(* Half-open address intervals [lo, hi) — the abstract domain the
   proof engine reasons in.  The machine's guards and the MPU both act
   on contiguous address ranges, so an interval that lies entirely on
   one side of every boundary behaves uniformly: one abstract step
   covers every concrete address the interval denotes. *)

type t = { lo : int; hi : int }

let make lo hi =
  if lo < 0 || hi > 0x10000 || lo >= hi then
    invalid_arg (Printf.sprintf "Interval.make: [%04X,%04X)" lo hi);
  { lo; hi }

let lo t = t.lo
let hi t = t.hi
let mem a t = a >= t.lo && a < t.hi
let subset a b = a.lo >= b.lo && a.hi <= b.hi

let inter a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo < hi then Some { lo; hi } else None

(* Entirely below / at-or-above a cut point: the shape of both deref
   guards (lower bound [data_lo], upper bound [data_hi]) and of the
   MPU segment boundaries.  An interval straddling the cut satisfies
   neither — callers must split first. *)
let below cut t = t.hi <= cut
let above cut t = t.lo >= cut

let width t = t.hi - t.lo
let pp ppf t = Format.fprintf ppf "[%04X,%04X)" t.lo t.hi
let to_string t = Format.asprintf "%a" pp t
