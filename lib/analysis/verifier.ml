(* Independent SFI verifier: abstract interpretation of a linked app
   code section over unsigned 16-bit intervals, run over the
   control-flow graph {!Cfi} reconstructed and certified.  See
   verifier.mli for the policy and DESIGN.md for the soundness/TCB
   discussion.

   The verifier shares no code with the compiler's check insertion: it
   reads only the CFI graph and the section view of the linker's
   symbol table, so a bug in codegen or in the range analysis cannot
   silently produce an accepted-but-unsafe image. *)

module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module M = Amulet_mcu.Machine
module T = Amulet_mcu.Timer
module Iso = Amulet_cc.Isolation

type violation = { vaddr : int; vtext : string; vreason : string }

type stats = {
  v_insns : int;
  v_blocks : int;
  v_stores : int;
  v_loads : int;
  v_branches : int;
  v_rets : int;
}

let pp_violation ppf v =
  Format.fprintf ppf "%04X: %-28s %s" v.vaddr v.vtext v.vreason

let pp_stats ppf s =
  Format.fprintf ppf
    "%d instructions in %d blocks; proved %d stores, %d loads, %d indirect \
     branches, %d returns"
    s.v_insns s.v_blocks s.v_stores s.v_loads s.v_branches s.v_rets

(* ------------------------------------------------------------------ *)
(* Abstract values *)

(* [Iv] is an unsigned interval; [Shadow] marks a register holding the
   InfoMem shadow-stack pointer (only obtainable by loading
   &shadow_sp_addr); [Frame] marks R4 holding the function's own frame
   pointer (only obtainable as MOV SP->R4 or POP R4). *)
type av = Any | Iv of int * int | Shadow | Frame

let av_join a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) -> Iv (min l1 l2, max h1 h2)
  | Shadow, Shadow -> Shadow
  | Frame, Frame -> Frame
  | _ -> if a = b then a else Any

(* Arithmetic stays in the unsigned 16-bit range; anything that could
   wrap collapses to Any (the concrete machine wraps mod 2^16, so an
   interval that stays in range is exact). *)
let av_add a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) when h1 + h2 <= 0xFFFF -> Iv (l1 + l2, h1 + h2)
  | Shadow, Iv (2, 2) | Iv (2, 2), Shadow -> Shadow
  | _ -> Any

let av_sub a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) when l1 - h2 >= 0 -> Iv (l1 - h2, h1 - l2)
  | Shadow, Iv (2, 2) -> Shadow
  | _ -> Any

let av_and a b =
  match (a, b) with
  | Iv (_, h1), Iv (_, h2) -> Iv (0, min h1 h2)
  | Iv (_, h), _ | _, Iv (_, h) -> Iv (0, h)
  | _ -> Any

(* dst AND NOT src: only clears bits of dst *)
let av_bic dst = match dst with Iv (_, h) -> Iv (0, h) | _ -> Any

(* OR/XOR of values below 2^k stay below 2^k *)
let pow2_mask h =
  let m = ref 1 in
  while !m <= h do
    m := !m * 2
  done;
  !m - 1

let av_bis a b =
  match (a, b) with
  | Iv (l1, h1), Iv (l2, h2) -> Iv (max l1 l2, pow2_mask (max h1 h2))
  | _ -> Any

let av_xor a b =
  match (a, b) with
  | Iv (_, h1), Iv (_, h2) -> Iv (0, pow2_mask (max h1 h2))
  | _ -> Any

(* a register value read at, or written by an operation of, byte
   width: its low byte *)
let byte_clamp w v =
  match (w, v) with
  | W.W16, _ -> v
  | W.W8, Iv (l, h) when h <= 0xFF -> Iv (l, h)
  | W.W8, _ -> Iv (0, 0xFF)

(* ------------------------------------------------------------------ *)
(* Abstract machine state *)

(* [tos] abstracts the word at 0(SP) — the return-address slot the
   compiler's epilogue guard inspects; [tos_shadow] records that the
   shadow-stack comparison proved it untampered.  Both die on any
   store, SP write or call. *)
type state = { regs : av array; mutable tos : av; mutable tos_shadow : bool }

let top_state () =
  let s = { regs = Array.make 16 Any; tos = Any; tos_shadow = false } in
  s.regs.(4) <- Frame;
  (* callers (trampoline/other verified functions) maintain R4 *)
  s

let copy_state st = { st with regs = Array.copy st.regs }

let state_join a b =
  {
    regs = Array.init 16 (fun i -> av_join a.regs.(i) b.regs.(i));
    tos = av_join a.tos b.tos;
    tos_shadow = a.tos_shadow && b.tos_shadow;
  }

let state_equal a b =
  a.regs = b.regs && a.tos = b.tos && a.tos_shadow = b.tos_shadow

(* cells a CMP/Jcc pair can refine *)
type cell = Cell_reg of int | Cell_tos
type cmp_src = Cs_iv of int * int | Cs_shadow

(* ------------------------------------------------------------------ *)
(* Verification context *)

type ctx = { mode : Iso.mode; sec : Section.t }

type recorder = {
  viols : (int * string, violation) Hashtbl.t;
  visited : (int, unit) Hashtbl.t;
  passed : (int * char, unit) Hashtbl.t;
}

let checked ctx = ctx.mode <> Iso.No_isolation

(* policy for a dynamic access whose start address is in [l, h] *)
let region_ok ctx (l, h) =
  match ctx.mode with
  | Iso.No_isolation -> true
  | Iso.Mpu_assisted -> l >= ctx.sec.s_data_lo (* MPU: upper bound *)
  | Iso.Software_only | Iso.Feature_limited ->
    l >= ctx.sec.s_data_lo && h < ctx.sec.s_data_hi

let code_ok ctx (l, h) =
  match ctx.mode with
  | Iso.No_isolation -> true
  | Iso.Mpu_assisted -> l >= ctx.sec.s_code_lo
  | Iso.Software_only | Iso.Feature_limited ->
    l >= ctx.sec.s_code_lo && h < ctx.sec.s_code_hi

(* absolute addresses an app may always write / read *)
let abs_store_ok ctx a =
  (a >= ctx.sec.s_data_lo && a < ctx.sec.s_data_hi)
  || List.mem a
       [
         M.halt_port; M.console_port; M.sw_fault_port; T.ctl_addr;
         T.ex0_addr; Iso.shadow_sp_addr;
       ]

let abs_load_ok ctx a =
  (a >= ctx.sec.s_data_lo && a < ctx.sec.s_data_hi)
  || List.mem a [ T.counter_addr; Iso.shadow_sp_addr ]

let bounds_of = function Iv (l, h) -> (l, h) | _ -> (0, 0xFFFF)

let is_bounds_check ctx k =
  match Hashtbl.find_opt ctx.sec.s_externs k with
  | Some (Section.Helper h) -> h.Amulet_cc.Runtime.name = "__bounds_check"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Block transfer.

   Simulates one CFG block from entry state [st0] and yields one state
   per outgoing edge, with conditional-branch refinement applied and
   infeasible edges dropped.  With [recorder] set it also replays the
   policy checks and records violations — used for the final pass
   over the fixpoint. *)

let run ctx ?recorder st0 (b : Cfi.block) =
  let st = copy_state st0 in
  let last_cmp = ref None in
  let carry_clr = ref false in
  let prev1 = ref None and prev2 = ref None in
  let viol a insn reason =
    if checked ctx then
      match recorder with
      | None -> ()
      | Some r ->
        if not (Hashtbl.mem r.viols (a, reason)) then
          Hashtbl.replace r.viols (a, reason)
            { vaddr = a; vtext = O.to_string insn; vreason = reason }
  in
  let pass a kind =
    match recorder with
    | None -> ()
    | Some r -> Hashtbl.replace r.passed (a, kind) ()
  in
  let kill_tos () =
    st.tos <- Any;
    st.tos_shadow <- false;
    match !last_cmp with
    | Some (_, Cell_tos) -> last_cmp := None
    | _ -> ()
  in
  (* a register write ends a comparison on that register; a write to
     SR (R2) replaces the flags a CMP or the carry idiom left *)
  let set_reg r v =
    st.regs.(r) <- v;
    (match !last_cmp with
    | Some (_, Cell_reg r') when r' = r -> last_cmp := None
    | _ -> ());
    if r = 2 then begin
      last_cmp := None;
      carry_clr := false
    end;
    if r = 1 then kill_tos ()
  in
  (* dynamic memory access through a computed address *)
  let check_dyn a insn ~store v =
    if region_ok ctx (bounds_of v) then
      pass a (if store then 's' else 'l')
    else
      viol a insn
        (Printf.sprintf "%s address not proven inside the app data section"
           (if store then "store" else "load"))
  in
  (* an x(Rn)/@Rn operand: structurally trusted bases, else dynamic *)
  let check_indexed a insn ~store r off =
    match st.regs.(r) with
    | _ when r = 1 -> () (* SP-relative: stack discipline (TCB) *)
    | Frame -> () (* FP-relative with proven frame pointer *)
    | Shadow -> () (* shadow-stack maintenance pattern *)
    | v ->
      let soff = W.to_signed W.W16 off in
      let v =
        if soff = 0 then v
        else
          match v with
          | Iv (l, h) when l + soff >= 0 && h + soff <= 0xFFFF ->
            Iv (l + soff, h + soff)
          | _ -> Any
      in
      check_dyn a insn ~store v
  in
  let check_abs a insn ~store x =
    let ok = if store then abs_store_ok ctx x else abs_load_ok ctx x in
    if not ok then
      viol a insn
        (Printf.sprintf "%s to address 0x%04X outside the app data section"
           (if store then "store" else "load")
           x)
  in
  (* evaluate a source operand: side checks + post-increment + value *)
  let src_av a insn w s =
    match s with
    | O.S_immediate k ->
      let k = k land 0xFFFF in
      let k = if w = W.W8 then k land 0xFF else k in
      Iv (k, k)
    | O.S_reg r -> byte_clamp w st.regs.(r)
    | O.S_indexed (r, off) ->
      check_indexed a insn ~store:false r off;
      if w = W.W8 then Iv (0, 0xFF) else Any
    | O.S_absolute x ->
      check_abs a insn ~store:false x;
      if x = Iso.shadow_sp_addr && w = W.W16 then Shadow
      else if w = W.W8 then Iv (0, 0xFF)
      else Any
    | O.S_indirect r ->
      check_indexed a insn ~store:false r 0;
      if w = W.W8 then Iv (0, 0xFF) else Any
    | O.S_indirect_inc r ->
      check_indexed a insn ~store:false r 0;
      let step = if w = W.W8 then 1 else 2 in
      set_reg r (av_add st.regs.(r) (Iv (step, step)));
      if w = W.W8 then Iv (0, 0xFF) else Any
  in
  let transfer op cur sav =
    match op with
    | O.MOV -> sav
    | O.ADD -> av_add cur sav
    | O.SUB -> av_sub cur sav
    | O.AND -> av_and cur sav
    | O.BIC -> av_bic cur
    | O.BIS -> av_bis cur sav
    | O.XOR -> av_xor cur sav
    | O.ADDC | O.SUBC | O.DADD -> Any
    | O.CMP | O.BIT -> cur
  in
  (* conditional-edge refinement from the live CMP *)
  let get_cell = function Cell_reg r -> st.regs.(r) | Cell_tos -> st.tos in
  let refine cond taken =
    match !last_cmp with
    | None -> Some (copy_state st)
    | Some (Cs_shadow, Cell_tos) ->
      let stc = copy_state st in
      if cond = O.JEQ && taken then stc.tos_shadow <- true;
      Some stc
    | Some (Cs_shadow, _) -> Some (copy_state st)
    | Some (Cs_iv (k1, k2), c) -> (
      match get_cell c with
      | Shadow | Frame -> Some (copy_state st)
      | v -> (
        let l, h = bounds_of v in
        let nb =
          (* CMP computes cell - src: JC taken means cell >= src *)
          match (cond, taken) with
          | O.JC, true | O.JNC, false -> Some (max l k1, h)
          | O.JC, false | O.JNC, true -> Some (l, min h (k2 - 1))
          | O.JEQ, true -> Some (max l k1, min h k2)
          | _ -> None
        in
        match nb with
        | None -> Some (copy_state st)
        | Some (l', h') ->
          if l' > h' then None (* infeasible edge *)
          else
            let stc = copy_state st in
            (match c with
            | Cell_reg r -> stc.regs.(r) <- Iv (l', h')
            | Cell_tos -> stc.tos <- Iv (l', h'));
            Some stc))
  in
  List.iter
    (fun (i : Cfi.insn) ->
      let a = i.Cfi.i_addr and insn = i.Cfi.i_op in
      (match recorder with
      | Some r -> Hashtbl.replace r.visited a ()
      | None -> ());
      let next_cmp = ref None in
      (match insn with
      (* ---- control transfers: Cfi proved their targets; the
         block's edges are followed below ---- *)
      | O.Jump _ | O.Reti | O.Fmt1 (O.MOV, _, O.S_immediate _, O.D_reg 0) ->
        ()
      | O.Fmt1 (O.MOV, _, O.S_indirect_inc 1, O.D_reg 0) ->
        (* RET: the return address must be proven by the epilogue
           guard (or the shadow-stack comparison) in the modes whose
           compiler inserts one *)
        if Iso.checks_lower_bound ctx.mode then
          if st.tos_shadow then pass a 'r'
          else if code_ok ctx (bounds_of st.tos) then pass a 'r'
          else
            viol a insn "return address not proven inside the app code section"
      (* ---- calls ---- *)
      | O.Fmt2 (O.CALL, _, s) ->
        (match s with
        | O.S_reg r ->
          if code_ok ctx (bounds_of st.regs.(r)) then pass a 'b'
          else
            viol a insn
              "indirect call target not proven inside the app code section"
        | _ -> ());
        (* refine the Feature-Limited array index certified by
           __bounds_check: MOV Ri,R14; MOV #len,R15; CALL *)
        let bc_refine =
          match (s, !prev1, !prev2) with
          | ( O.S_immediate k,
              Some (O.Fmt1 (O.MOV, W.W16, O.S_immediate n, O.D_reg 15)),
              Some (O.Fmt1 (O.MOV, W.W16, O.S_reg rs, O.D_reg 14)) )
            when is_bounds_check ctx (k land 0xFFFF) && n > 0 ->
            Some (rs, n)
          | _ -> None
        in
        (* caller-saved registers and the flags die across any call *)
        for r = 12 to 15 do
          set_reg r Any
        done;
        kill_tos ();
        last_cmp := None;
        carry_clr := false;
        Option.iter
          (fun (rs, n) ->
            set_reg rs (Iv (0, n - 1));
            set_reg 14 (Iv (0, n - 1)))
          bc_refine
      (* ---- other single-operand ---- *)
      | O.Fmt2 (O.PUSH, w, s) ->
        ignore (src_av a insn w s);
        kill_tos () (* SP moved *)
      | O.Fmt2 ((O.RRA | O.RRC | O.SWPB | O.SXT) as op1, w, s) ->
        (match s with
        | O.S_reg r ->
          let v =
            match (op1, st.regs.(r)) with
            | O.RRA, Iv (l, h) when h <= 0x7FFF -> Iv (l lsr 1, h lsr 1)
            | O.RRC, Iv (l, h) when !carry_clr -> Iv (l lsr 1, h lsr 1)
            | _ -> Any
          in
          set_reg r (byte_clamp w v)
        | O.S_indexed (r, off) -> check_indexed a insn ~store:true r off
        | O.S_indirect r | O.S_indirect_inc r ->
          check_indexed a insn ~store:true r 0
        | O.S_absolute x -> check_abs a insn ~store:true x
        | O.S_immediate _ -> viol a insn "single-operand op on an immediate");
        (* SWPB alone leaves the flags *)
        if op1 <> O.SWPB then last_cmp := None;
        carry_clr := false
      (* ---- two-operand ---- *)
      | O.Fmt1 (op, w, s, d) ->
        let sav = src_av a insn w s in
        (match d with
        | O.D_reg rd ->
          if O.writes_back op then begin
            let v =
              match (op, w, s, rd) with
              (* frame-pointer discipline: only MOV SP->R4 / POP R4
                 re-establish a trusted frame pointer *)
              | O.MOV, W.W16, O.S_reg 1, 4 -> Frame
              | O.MOV, W.W16, O.S_indirect_inc 1, 4 -> Frame
              | _ -> byte_clamp w (transfer op st.regs.(rd) sav)
            in
            set_reg rd v
          end
        | O.D_indexed (rd, off) ->
          check_indexed a insn ~store:(O.writes_back op) rd off;
          if O.writes_back op then kill_tos ()
        | O.D_absolute x ->
          check_abs a insn ~store:(O.writes_back op) x;
          if O.writes_back op then kill_tos ());
        (* comparison bookkeeping for the following Jcc *)
        (if op = O.CMP && w = W.W16 then
           let ccell =
             match d with
             | O.D_reg r -> Some (Cell_reg r)
             | O.D_indexed (1, 0) -> Some Cell_tos
             | _ -> None
           in
           let csrc =
             match s with
             | O.S_immediate k -> Some (Cs_iv (k land 0xFFFF, k land 0xFFFF))
             | O.S_reg rs -> (
               match st.regs.(rs) with
               | Iv (l, h) -> Some (Cs_iv (l, h))
               | _ -> None)
             | O.S_indirect rs when st.regs.(rs) = Shadow -> Some Cs_shadow
             | _ -> None
           in
           match (ccell, csrc) with
           | Some c, Some cs -> next_cmp := Some (cs, c)
           | _ -> ());
        if op = O.BIC && s = O.S_immediate 1 && d = O.D_reg 2 then
          (* BIC #1,SR: the carry-clearing idiom before RRC *)
          carry_clr := true
        else if O.sets_flags op then begin
          last_cmp := !next_cmp;
          carry_clr := false
        end);
      prev2 := !prev1;
      prev1 := Some insn)
    b.Cfi.b_insns;
  let edges =
    List.filter_map
      (fun (t, e) ->
        let st' =
          match (e, !prev1) with
          | Cfi.E_taken, Some (O.Jump (cond, _)) -> refine cond true
          | Cfi.E_fall, Some (O.Jump (cond, _)) -> refine cond false
          | _ -> Some (copy_state st)
        in
        Option.map (fun st' -> (t, st')) st')
      b.Cfi.b_succs
  in
  (* a BR into another span of the section (a fault stub) carries the
     state along, as a jump within the span does *)
  match Option.bind !prev1 Cfi.br_target with
  | Some k
    when b.Cfi.b_succs = [] && k >= ctx.sec.s_code_lo && k < ctx.sec.s_code_hi
    ->
    (k, copy_state st) :: edges
  | _ -> edges

(* ------------------------------------------------------------------ *)
(* Whole-section verification *)

let widen_limit = 8

let verify ~(cfg : Cfi.t) =
  let ctx = { mode = cfg.Cfi.cf_mode; sec = cfg.Cfi.cf_section } in
  let block_of = Hashtbl.create 64 in
  List.iter
    (fun (f : Cfi.func) ->
      List.iter
        (fun b -> Hashtbl.replace block_of b.Cfi.b_addr b)
        f.Cfi.f_blocks)
    cfg.Cfi.cf_funcs;
  let blocks a f = Option.fold ~none:[] ~some:f (Hashtbl.find_opt block_of a) in
  (* external control can only enter an app at its functions or its
     exit stub; everything else is reached by edges.  A block that
     keeps changing past the widening limit restarts from the top
     state. *)
  let states =
    Worklist.solve
      ~entries:
        (List.map
           (fun (e : Section.entry) -> (e.addr, top_state ()))
           (ctx.sec.s_functions @ Option.to_list ctx.sec.s_exit))
      ~join:state_join ~equal:state_equal
      ~widen:(fun _ ~count ~old:_ j ->
        if count > widen_limit then top_state () else j)
      ~transfer:(fun a st -> blocks a (run ctx st))
  in
  (* final pass: replay every reached block and record the verdicts *)
  let r =
    {
      viols = Hashtbl.create 8;
      visited = Hashtbl.create 256;
      passed = Hashtbl.create 64;
    }
  in
  Hashtbl.iter (fun a st -> ignore (blocks a (run ctx ~recorder:r st))) states;
  if Hashtbl.length r.viols = 0 then begin
    let count k =
      Hashtbl.fold (fun (_, k') () n -> if k' = k then n + 1 else n) r.passed 0
    in
    Ok
      {
        v_insns = Hashtbl.length r.visited;
        v_blocks = Hashtbl.length states;
        v_stores = count 's';
        v_loads = count 'l';
        v_branches = count 'b';
        v_rets = count 'r';
      }
  end
  else
    Error
      (Hashtbl.fold (fun _ v acc -> v :: acc) r.viols []
      |> List.sort (fun a b -> compare (a.vaddr, a.vreason) (b.vaddr, b.vreason)))
