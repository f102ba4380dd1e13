(* The abstract transition system extracted from [lib/mcu].

   One app ("the attacker") runs under one of the four isolation
   modes.  Concrete machine state is collapsed to the pieces the
   isolation argument actually turns on:

   - the privilege side of the gate ([P_app] / [P_os]);
   - whether the MPU is enabled;
   - which MPU window is programmed (app window, OS window, or a
     widened window after a boundary-register tamper);
   - whether containment has already failed (a terminal [dead] marker
     carrying what happened).

   Memory is region-abstracted: addresses live in canonical intervals
   ([Geom]) chosen so that every guard comparison and every MPU
   boundary falls *between* intervals, never inside one.  A store to
   an interval therefore behaves uniformly for every concrete address
   it denotes — that is the abstraction the differential lemmas in
   [Lemmas] validate against the real decoder/ALU.

   Gate entry and exit are the only privilege/window transitions, as
   in the concrete AFT stubs ([lib/aft/stubs.ml]): the trampoline arms
   the app window before dispatch, a gate switches to the OS window
   for the service body and restores the app window on return.

   Deliberate abstractions (documented, load-bearing):

   - gate exit restores the app window from the OS-held slots
     unconditionally.  Corrupting the slots would itself require a
     containment breach (they live in OS data), so any execution that
     reaches a corrupted restore is already counted as refuted at the
     earlier store;
   - a successful app write to an MPU register is terminal: the write
     is a breach by itself (the oracle's rule), so the post-tamper
     state space does not need to be explored for the safety
     property.  The widened/disabled effect is still modelled for the
     window-integrity obligation via [W_wide];
   - the interrupt-vector page [0xFF80, 0x10000) is mapped, writable
     memory that the MPU never covers ([Mpu.segment_of_addr]) and the
     Mpu_assisted mode's lower-bound-only guard never checks (the
     guards are unsigned comparisons).  The abstract machine keeps the
     hole; [Obligations] states it as an explicit refutable claim
     rather than papering over it. *)

module Iso = Amulet_cc.Isolation
module Map = Amulet_mcu.Memory_map
module Mpu = Amulet_mcu.Mpu
module I = Interval

(* ------------------------------------------------------------------ *)
(* Regions: names for the canonical intervals of the partition.        *)

type region =
  | R_own_data  (** the attacker app's declared globals and stack *)
  | R_own_slack  (** 1 KiB-granule slack between globals and data_limit *)
  | R_own_code
  | R_os  (** OS code/data and any lower app: FRAM below own code *)
  | R_victim  (** the next app above the attacker *)
  | R_fram_high  (** unused FRAM above the victim, below fram_limit *)
  | R_vectors  (** interrupt vectors — never MPU-covered *)
  | R_sram  (** the shared SRAM call stack *)
  | R_info
  | R_mpu_regs
  | R_periph  (** non-MPU peripheral/debug ports *)

let all_regions =
  [
    R_own_data; R_own_slack; R_own_code; R_os; R_victim; R_fram_high;
    R_vectors; R_sram; R_info; R_mpu_regs; R_periph;
  ]

let region_name = function
  | R_own_data -> "own-data"
  | R_own_slack -> "own-slack"
  | R_own_code -> "own-code"
  | R_os -> "os"
  | R_victim -> "victim"
  | R_fram_high -> "fram-high"
  | R_vectors -> "vectors"
  | R_sram -> "sram"
  | R_info -> "info"
  | R_mpu_regs -> "mpu-regs"
  | R_periph -> "periph"

(* ------------------------------------------------------------------ *)
(* Canonical geometry                                                  *)

type geom = {
  g_os : I.t;
  g_own_code : I.t;
  g_own_data : I.t;  (** declared globals + private stack *)
  g_own_slack : I.t;  (** rest of the 1 KiB-granule window *)
  g_victim : I.t;
  g_fram_high : I.t;
  g_vectors : I.t;
  g_sram : I.t;
  g_info : I.t;
  g_mpu_regs : I.t;
  g_periph : I.t;
}

(* All FRAM cuts sit on 1 KiB granules, so the app MPU window is
   exactly [g_own_data ∪ g_own_slack] and boundary snapping is the
   identity — granularity slack is modelled by [g_own_slack] itself. *)
let default =
  {
    g_os = I.make Map.fram_start 0x5000;
    g_own_code = I.make 0x5000 0x5400;
    g_own_data = I.make 0x5400 0x5600;
    g_own_slack = I.make 0x5600 0x5800;
    g_victim = I.make 0x5800 0x6000;
    g_fram_high = I.make 0x6000 Map.fram_limit;
    g_vectors = I.make Map.vectors_start Map.vectors_limit;
    g_sram = I.make Map.sram_start Map.sram_limit;
    g_info = I.make Map.info_mem_start Map.info_mem_limit;
    g_mpu_regs = I.make Mpu.ctl0_addr (Mpu.sam_addr + 2);
    g_periph = I.make 0x01F0 0x01FA;
  }

let interval_of g = function
  | R_own_data -> g.g_own_data
  | R_own_slack -> g.g_own_slack
  | R_own_code -> g.g_own_code
  | R_os -> g.g_os
  | R_victim -> g.g_victim
  | R_fram_high -> g.g_fram_high
  | R_vectors -> g.g_vectors
  | R_sram -> g.g_sram
  | R_info -> g.g_info
  | R_mpu_regs -> g.g_mpu_regs
  | R_periph -> g.g_periph

(* Representative concrete address, for counterexample replay. *)
let rep g r = I.lo (interval_of g r)

let data_lo g = I.lo g.g_own_data
let data_hi g = I.hi g.g_own_slack (* data_limit: top of the granule window *)
let window g = I.make (data_lo g) (data_hi g)

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type priv = P_app | P_os
type window_cfg = W_app | W_os | W_wide

type kind = K_write | K_read | K_exec | K_mpu

type breach = { br_region : region; br_kind : kind }

type stuck = S_guard | S_mpu | S_badpw | S_gate | S_kernel

type dead = D_breach of breach | D_stuck of stuck

type state = { priv : priv; mpu_en : bool; win : window_cfg; dead : dead option }

let kind_name = function
  | K_write -> "write"
  | K_read -> "read"
  | K_exec -> "exec"
  | K_mpu -> "mpu-reconfig"

let stuck_name = function
  | S_guard -> "guard-fault"
  | S_mpu -> "mpu-fault"
  | S_badpw -> "mpu-password-fault"
  | S_gate -> "gate-rejected"
  | S_kernel -> "kernel-contained"

let pp_dead ppf = function
  | D_breach b ->
    Format.fprintf ppf "BREACH(%s %s)" (kind_name b.br_kind)
      (region_name b.br_region)
  | D_stuck s -> Format.fprintf ppf "%s" (stuck_name s)

let pp_state ppf s =
  Format.fprintf ppf "{%s mpu=%s win=%s%a}"
    (match s.priv with P_app -> "app" | P_os -> "os")
    (if s.mpu_en then "on" else "off")
    (match s.win with W_app -> "app" | W_os -> "os" | W_wide -> "wide")
    (fun ppf -> function
      | None -> ()
      | Some d -> Format.fprintf ppf " %a" pp_dead d)
    s.dead

let state_equal (a : state) (b : state) = a = b

let init ~mode =
  { priv = P_app; mpu_en = Iso.uses_mpu mode; win = W_app; dead = None }

let universe =
  let deads =
    None
    :: List.map (fun s -> Some (D_stuck s)) [ S_guard; S_mpu; S_badpw; S_gate; S_kernel ]
    @ List.concat_map
        (fun r ->
          List.map
            (fun k -> Some (D_breach { br_region = r; br_kind = k }))
            [ K_write; K_read; K_exec; K_mpu ])
        all_regions
  in
  List.concat_map
    (fun priv ->
      List.concat_map
        (fun mpu_en ->
          List.concat_map
            (fun win -> List.map (fun dead -> { priv; mpu_en; win; dead }) deads)
            [ W_app; W_os; W_wide ])
        [ false; true ])
    [ P_app; P_os ]

(* ------------------------------------------------------------------ *)
(* Actions                                                             *)

type mpu_effect = M_disable | M_widen | M_badpw

type action =
  | A_compute
  | A_store of region  (** unguarded store (binary payload) *)
  | A_load of region
  | A_jump of region  (** raw branch (binary payload) *)
  | A_guarded_store of region  (** pointer store behind the mode's guards *)
  | A_guarded_load of region
  | A_guarded_call of region  (** call via a checked function pointer *)
  | A_push_bounded
  | A_push_wild  (** unbounded recursion walking the stack downwards *)
  | A_mpu_store of mpu_effect  (** store to an MPU register *)
  | A_gate_enter
  | A_gate_exit
  | A_gate_ptr of region  (** gate call passing a pointer into [region] *)

let mpu_effect_name = function
  | M_disable -> "disable"
  | M_widen -> "widen-segb2"
  | M_badpw -> "bad-password"

let pp_action ppf = function
  | A_compute -> Format.fprintf ppf "compute"
  | A_store r -> Format.fprintf ppf "store %s" (region_name r)
  | A_load r -> Format.fprintf ppf "load %s" (region_name r)
  | A_jump r -> Format.fprintf ppf "jump %s" (region_name r)
  | A_guarded_store r -> Format.fprintf ppf "guarded-store %s" (region_name r)
  | A_guarded_load r -> Format.fprintf ppf "guarded-load %s" (region_name r)
  | A_guarded_call r -> Format.fprintf ppf "guarded-call %s" (region_name r)
  | A_push_bounded -> Format.fprintf ppf "push"
  | A_push_wild -> Format.fprintf ppf "push-wild"
  | A_mpu_store e -> Format.fprintf ppf "mpu-store %s" (mpu_effect_name e)
  | A_gate_enter -> Format.fprintf ppf "gate-enter"
  | A_gate_exit -> Format.fprintf ppf "gate-exit"
  | A_gate_ptr r -> Format.fprintf ppf "gate-ptr %s" (region_name r)

let action_to_string a = Format.asprintf "%a" pp_action a

(* ------------------------------------------------------------------ *)
(* Attacker models                                                     *)

type attacker =
  | Benign  (** a well-behaved app: touches only its own memory *)
  | Compiled of { stack_bounded : bool }
      (** anything the mode's toolchain will emit for adversarial
          source (guards and checks included) *)
  | Binary  (** arbitrary machine code smuggled past the toolchain *)

let attacker_name = function
  | Benign -> "benign"
  | Compiled { stack_bounded = true } -> "compiled"
  | Compiled { stack_bounded = false } -> "compiled-unbounded-stack"
  | Binary -> "binary"

let gates = [ A_gate_enter; A_gate_exit; A_compute ]

let repertoire ~mode ~attacker =
  let shared = not (Iso.separate_stacks mode) in
  let own_traffic =
    [ A_store R_own_data; A_load R_own_data; A_gate_ptr R_own_data ]
    @ (if shared then [ A_store R_sram; A_load R_sram ] else [])
  in
  match attacker with
  | Benign -> gates @ own_traffic @ [ A_push_bounded ]
  | Compiled { stack_bounded } ->
    if not (Iso.allows_pointers mode) then
      (* Feature-Limited: no pointers, no recursion — direct accesses
         to declared globals and in-bounds arrays only. *)
      gates @ own_traffic @ [ A_push_bounded ]
    else
      gates
      @ List.concat_map
          (fun r ->
            [ A_guarded_store r; A_guarded_load r; A_guarded_call r; A_gate_ptr r ])
          all_regions
      @ [ A_push_bounded ]
      @ (if stack_bounded || not (Iso.allows_recursion mode) then []
         else [ A_push_wild ])
  | Binary ->
    gates
    @ List.concat_map
        (fun r -> [ A_store r; A_load r; A_jump r; A_gate_ptr r ])
        all_regions
    @ [
        A_push_bounded; A_push_wild;
        A_mpu_store M_disable; A_mpu_store M_widen; A_mpu_store M_badpw;
      ]

(* ------------------------------------------------------------------ *)
(* Step semantics                                                      *)

type access = Ax_read | Ax_write | Ax_exec

(* The mode's deref guards, acting on a whole interval.  The emitted
   comparisons are unsigned ([JC]/[JNC] in codegen), so "below" and
   "above" are plain address-order tests over the 16-bit space. *)
let guard_blocks ~mode g iv =
  (Iso.checks_lower_bound mode && I.below (data_lo g) iv)
  || (Iso.checks_upper_bound mode && I.above (data_hi g) iv)

(* MPU verdict for an access to [iv] under the current window.  Only
   InfoMem and main FRAM are covered — SRAM, peripherals and the
   vector page always pass, exactly as [Mpu.segment_of_addr] says. *)
let mpu_blocks g ~en ~win access iv =
  en
  &&
  if I.subset iv g.g_info then true (* both configs leave InfoMem no-access *)
  else if I.below Map.fram_start iv || I.above Map.fram_limit iv then false
  else
    let b1 = data_lo g in
    let b2 = match win with W_wide -> I.hi g.g_victim | _ -> data_hi g in
    if I.below b1 iv then
      (* segment 1: execute-only *)
      access <> Ax_exec
    else if I.above b1 iv && I.below b2 iv then
      (* segment 2: read/write, no execute *)
      access = Ax_exec
    else
      (* segment 3 *)
      match win with
      | W_os -> access = Ax_exec (* OS window: rw, no execute *)
      | W_app | W_wide -> true (* no access *)

(* The campaign oracle's sanction rule: an app may write its own data
   window, and the shared SRAM stack in the shared-stack modes. *)
let permitted_write ~mode g iv =
  I.subset iv (window g)
  || ((not (Iso.separate_stacks mode)) && I.subset iv g.g_sram)

let permitted_read ~mode g iv =
  permitted_write ~mode g iv || I.subset iv g.g_own_code

let region_of g iv =
  match List.find_opt (fun r -> I.subset iv (interval_of g r)) all_regions with
  | Some r -> r
  | None -> invalid_arg ("Absmachine: interval outside partition " ^ I.to_string iv)

let breached s b = Some { s with dead = Some (D_breach b) }
let stuck s k = Some { s with dead = Some (D_stuck k) }

let step ~mode ?(geom = default) (s : state) (a : action) : state option =
  let g = geom in
  match s.dead with
  | Some _ -> Some s (* dead states absorb: containment already decided *)
  | None -> (
    let store ~guarded r =
      let iv = interval_of g r in
      if r = R_mpu_regs then
        (* worst case: a correctly-passworded disable write.  The
           password check runs before any trace event (machine.ml), so
           a guarded pointer must survive its guard first. *)
        if guarded && guard_blocks ~mode g iv then stuck s S_guard
        else breached s { br_region = R_mpu_regs; br_kind = K_mpu }
      else if r = R_periph then
        (* debug/host ports: not sanctioned as a breach by the oracle *)
        if guarded && guard_blocks ~mode g iv then stuck s S_guard else Some s
      else if guarded && guard_blocks ~mode g iv then stuck s S_guard
      else if mpu_blocks g ~en:s.mpu_en ~win:s.win Ax_write iv then stuck s S_mpu
      else if permitted_write ~mode g iv then Some s
      else breached s { br_region = region_of g iv; br_kind = K_write }
    in
    let load ~guarded r =
      let iv = interval_of g r in
      if r = R_mpu_regs || r = R_periph then
        (* MMIO reads raise no events and leak no app/OS memory *)
        if guarded && guard_blocks ~mode g iv then stuck s S_guard else Some s
      else if guarded && guard_blocks ~mode g iv then stuck s S_guard
      else if mpu_blocks g ~en:s.mpu_en ~win:s.win Ax_read iv then stuck s S_mpu
      else if permitted_read ~mode g iv then Some s
      else breached s { br_region = region_of g iv; br_kind = K_read }
    in
    let jump ~checked r =
      let iv = interval_of g r in
      if I.subset iv g.g_own_code then Some s
      else if checked && Iso.checks_lower_bound mode then
        (* the code-pointer guard is a two-sided own-code bounds check *)
        stuck s S_guard
      else if r = R_mpu_regs || r = R_periph then
        (* fetching MMIO yields junk; the decoder faults, kernel recovers *)
        stuck s S_kernel
      else if mpu_blocks g ~en:s.mpu_en ~win:s.win Ax_exec iv then stuck s S_mpu
      else breached s { br_region = region_of g iv; br_kind = K_exec }
    in
    match a with
    | A_compute -> Some s
    | A_gate_exit -> (
      match s.priv with
      | P_app -> None
      | P_os ->
        Some
          {
            s with
            priv = P_app;
            win = (if s.mpu_en then W_app else s.win);
          })
    | _ when s.priv <> P_app -> None (* only the OS runs between gates *)
    | A_gate_enter ->
      Some { s with priv = P_os; win = (if s.mpu_en then W_os else s.win) }
    | A_gate_ptr r ->
      (* the kernel validates gate pointers against the app's data and
         stack ranges before the service touches them *)
      if permitted_write ~mode g (interval_of g r) then Some s
      else stuck s S_gate
    | A_store r -> store ~guarded:false r
    | A_guarded_store r -> store ~guarded:true r
    | A_load r -> load ~guarded:false r
    | A_guarded_load r -> load ~guarded:true r
    | A_jump r -> jump ~checked:false r
    | A_guarded_call r -> jump ~checked:true r
    | A_push_bounded -> Some s
    | A_push_wild ->
      if not (Iso.separate_stacks mode) then
        (* the shared SRAM stack walks off the bottom of SRAM into
           unmapped space: a bus fault the kernel recovers from *)
        stuck s S_kernel
      else
        (* the private stack walks below data_lo into own code: the
           pushes themselves are unguarded stores *)
        let iv = g.g_own_code in
        if mpu_blocks g ~en:s.mpu_en ~win:s.win Ax_write iv then stuck s S_mpu
        else breached s { br_region = R_own_code; br_kind = K_write }
    | A_mpu_store M_badpw -> stuck s S_badpw
    | A_mpu_store (M_disable | M_widen) ->
      breached s { br_region = R_mpu_regs; br_kind = K_mpu })

(* ------------------------------------------------------------------ *)
(* Scenario runner (deterministic attack programs, for the corpus
   crosscheck)                                                         *)

type containment =
  | C_build  (** the mode's toolchain cannot emit this program *)
  | C_guard
  | C_mpu
  | C_gate
  | C_kernel
  | C_breach of breach
  | C_harmless

let run_scenario ~mode ~attacker actions =
  let rep = repertoire ~mode ~attacker in
  let rec go s trace = function
    | [] -> (C_harmless, List.rev trace)
    | a :: rest ->
      if not (List.mem a rep) then (C_build, List.rev trace)
      else (
        match step ~mode s a with
        | None -> invalid_arg ("scenario: disabled action " ^ action_to_string a)
        | Some s' -> (
          let trace = (s, a) :: trace in
          match s'.dead with
          | None -> go s' trace rest
          | Some (D_breach b) -> (C_breach b, List.rev trace)
          | Some (D_stuck S_guard) -> (C_guard, List.rev trace)
          | Some (D_stuck (S_mpu | S_badpw)) -> (C_mpu, List.rev trace)
          | Some (D_stuck S_gate) -> (C_gate, List.rev trace)
          | Some (D_stuck S_kernel) -> (C_kernel, List.rev trace)))
  in
  go (init ~mode) [] actions
