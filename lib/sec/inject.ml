module M = Amulet_mcu.Machine
module R = Amulet_mcu.Registers
module Mpu = Amulet_mcu.Mpu
module Word = Amulet_mcu.Word

type target = Regs | Fram of { lo : int; hi : int } | Mpu_config

module Rng = Amulet_fleet_core.Scenario.Rng

(* One scheduled upset, fully determined at planning time. *)
type flip =
  | F_reg of { reg : int; bit : int }
  | F_byte of { addr : int; bit : int }
  | F_mpu of { reg : Mpu.raw_reg; bit : int }

type plan = { schedule : (int * flip) list (* sorted by step *) }

let mpu_regs =
  [| Mpu.Raw_ctl0; Mpu.Raw_ctl1; Mpu.Raw_segb1; Mpu.Raw_segb2; Mpu.Raw_sam |]

let plan ~seed ~flips ~window:(lo, hi) target =
  let rng = Rng.create seed in
  let span = max 1 (hi - lo) in
  let one () =
    let step = lo + Rng.draw rng span in
    let f =
      match target with
      | Regs -> F_reg { reg = 4 + Rng.draw rng 12; bit = Rng.draw rng 16 }
      | Fram { lo; hi } ->
        F_byte
          { addr = lo + Rng.draw rng (max 1 (hi - lo)); bit = Rng.draw rng 8 }
      | Mpu_config ->
        F_mpu { reg = mpu_regs.(Rng.draw rng 5); bit = Rng.draw rng 16 }
    in
    (step, f)
  in
  let schedule = List.init flips (fun _ -> one ()) in
  { schedule = List.sort (fun (a, _) (b, _) -> compare a b) schedule }

type t = {
  mutable steps : int;
  mutable pending : (int * flip) list;
  mutable applied : string list; (* reversed *)
}

let describe step = function
  | F_reg { reg; bit } -> Printf.sprintf "step %d: flip R%d bit %d" step reg bit
  | F_byte { addr; bit } ->
    Printf.sprintf "step %d: flip [%04X] bit %d" step addr bit
  | F_mpu { reg; bit } ->
    Printf.sprintf "step %d: flip %s bit %d" step (Mpu.raw_reg_name reg) bit

let apply m f =
  match f with
  | F_reg { reg; bit } ->
    let regs = M.regs m in
    R.set regs reg (R.get regs reg lxor (1 lsl bit))
  | F_byte { addr; bit } ->
    let b = M.mem_checked_read m Word.W8 addr in
    M.mem_checked_write m Word.W8 addr (b lxor (1 lsl bit))
  | F_mpu { reg; bit } ->
    Mpu.raw_set m.M.mpu reg (Mpu.raw_get m.M.mpu reg lxor (1 lsl bit))

let arm plan m =
  let t = { steps = 0; pending = plan.schedule; applied = [] } in
  let tick machine =
    t.steps <- t.steps + 1;
    match t.pending with
    | (step, f) :: rest when step <= t.steps ->
      t.pending <- rest;
      apply machine f;
      t.applied <- describe t.steps f :: t.applied
    | _ -> ()
  in
  M.add_step_hook m tick;
  t

let steps t = t.steps
let flips_done t = List.length t.applied
let log t = List.rev t.applied
