type fault =
  | Mpu_violation of {
      access : Mpu.access;
      addr : int;
      pc : int;
      segment : Mpu.segment;
    }
  | Mpu_bad_password of { addr : int; pc : int }
  | Unmapped of { addr : int; pc : int; write : bool }
  | Illegal_instruction of { pc : int; word : int }

exception Fault of fault

let access_name = function
  | Mpu.Exec -> "execute"
  | Mpu.Dread -> "read"
  | Mpu.Dwrite -> "write"

let segment_name = function
  | Mpu.Seg_info -> "info"
  | Mpu.Seg1 -> "seg1"
  | Mpu.Seg2 -> "seg2"
  | Mpu.Seg3 -> "seg3"

let pp_fault ppf = function
  | Mpu_violation { access; addr; pc; segment } ->
    Format.fprintf ppf "MPU violation: %s of %04X (%s) at pc=%04X"
      (access_name access) addr (segment_name segment) pc
  | Mpu_bad_password { addr; pc } ->
    Format.fprintf ppf "MPU password violation on %04X at pc=%04X" addr pc
  | Unmapped { addr; pc; write } ->
    Format.fprintf ppf "unmapped %s of %04X at pc=%04X"
      (if write then "write" else "read")
      addr pc
  | Illegal_instruction { pc; word } ->
    Format.fprintf ppf "illegal instruction %04X at pc=%04X" word pc

type stop_reason =
  | Halted
  | Faulted of fault
  | Sw_fault of int
  | Out_of_fuel

let pp_stop_reason ppf = function
  | Halted -> Format.fprintf ppf "halted"
  | Faulted f -> Format.fprintf ppf "fault (%a)" pp_fault f
  | Sw_fault c -> Format.fprintf ppf "software fault %d" c
  | Out_of_fuel -> Format.fprintf ppf "out of fuel"

type t = {
  mem : Memory.t;
  mpu : Mpu.t;
  timer : Timer.t;
  cpu : Cpu.t;
  stats : Trace.stats;
  console : Buffer.t;
  mutable halted : bool;
  mutable sw_fault : int option;
  mutable host_call : t -> int -> unit;
  mutable on_event : (Trace.event -> unit) option;
  mutable on_step : (t -> unit) option;
  mutable emit_hook : (Trace.event -> unit) option;
  mutable in_step : bool;
  mutable extra_cycles : int;
  blocks : (int, Predecode.block) Hashtbl.t;
  mutable code_drained : int;
}

let host_call_port = 0x01F0
let console_port = 0x01F4
let halt_port = 0x01F6
let sw_fault_port = 0x01F8

let cycles t = t.cpu.Cpu.cycles + t.extra_cycles
let add_cycles t n = t.extra_cycles <- t.extra_cycles + n
let regs t = t.cpu.Cpu.regs

(* During an instruction, events go to the watcher chain snapshotted
   at step entry: a watcher armed mid-step (from an event callback)
   must observe whole instructions starting at the next boundary,
   never a suffix of the one in flight. *)
let watcher t = if t.in_step then t.emit_hook else t.on_event
let emit t e = match watcher t with None -> () | Some f -> f e

let add_watch t f =
  match t.on_event with
  | None -> t.on_event <- Some f
  | Some g ->
    t.on_event <-
      Some
        (fun e ->
          g e;
          f e)

let add_step_hook t f =
  match t.on_step with
  | None -> t.on_step <- Some f
  | Some g ->
    t.on_step <-
      Some
        (fun m ->
          g m;
          f m)

let pc_of t = Registers.get_pc t.cpu.Cpu.regs

let peripheral_read t width addr =
  let v =
    if Mpu.handles addr then Mpu.mmio_read t.mpu addr
    else if Timer.handles addr then
      Timer.mmio_read t.timer ~now:(cycles t) addr
    else 0
  in
  Word.norm width v

let peripheral_write t width addr v =
  let v = Word.norm width v in
  if Mpu.handles addr then begin
    (* The MPU's password check comes first: a rejected or ignored
       write must not appear in traces as if it happened. *)
    match Mpu.mmio_write t.mpu addr v with
    | Mpu.Write_ok -> emit t (Trace.Io_write { addr; value = v })
    | Mpu.Locked_ignored -> ()
    | Mpu.Bad_password ->
      raise (Fault (Mpu_bad_password { addr; pc = pc_of t }))
  end
  else begin
    emit t (Trace.Io_write { addr; value = v });
    if Timer.handles addr then Timer.mmio_write t.timer ~now:(cycles t) addr v
    else if addr = host_call_port then t.host_call t v
    else if addr = console_port then
      Buffer.add_char t.console (Char.chr (v land 0xFF))
    else if addr = halt_port then t.halted <- true
    else if addr = sw_fault_port then t.sw_fault <- Some v
  end

let mpu_check t access addr =
  match Mpu.check t.mpu access addr with
  | Mpu.Allowed -> ()
  | Mpu.Violation segment ->
    raise (Fault (Mpu_violation { access; addr; pc = pc_of t; segment }))

let bus_read t (kind : Cpu.access) width addr =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> peripheral_read t width addr
  | Memory_map.Unmapped ->
    raise (Fault (Unmapped { addr; pc = pc_of t; write = false }))
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    let access =
      match kind with Cpu.Afetch -> Mpu.Exec | Cpu.Aread -> Mpu.Dread
    in
    mpu_check t access addr;
    let value = Memory.read t.mem width addr in
    (match kind with
    | Cpu.Afetch -> t.stats.Trace.fetch_words <- t.stats.Trace.fetch_words + 1
    | Cpu.Aread -> (
      t.stats.Trace.data_reads <- t.stats.Trace.data_reads + 1;
      (* the event is built only once a watcher is known to be armed:
         the hooks-off path allocates nothing per access *)
      match watcher t with
      | None -> ()
      | Some f -> f (Trace.Mem_read { addr; width; value; pc = pc_of t })));
    value

let bus_write t width addr v =
  let addr = addr land 0xFFFF in
  match Memory_map.region_of_addr addr with
  | Memory_map.Peripherals -> peripheral_write t width addr v
  | Memory_map.Unmapped ->
    raise (Fault (Unmapped { addr; pc = pc_of t; write = true }))
  | Memory_map.Fram | Memory_map.Info_mem | Memory_map.Sram
  | Memory_map.Vectors | Memory_map.Bootstrap ->
    mpu_check t Mpu.Dwrite addr;
    Memory.write t.mem width addr v;
    t.stats.Trace.data_writes <- t.stats.Trace.data_writes + 1;
    match watcher t with
    | None -> ()
    | Some f ->
      f (Trace.Mem_write { addr; width; value = Word.norm width v; pc = pc_of t })

(* The bus closures capture the machine itself ([let rec]), so a data
   access is one closure call into [bus_read]/[bus_write]. *)
let create () =
  let rec t =
    {
      mem = Memory.create ();
      mpu = Mpu.create ();
      timer = Timer.create ();
      cpu =
        {
          Cpu.regs = Registers.create ();
          bus =
            {
              Cpu.read = (fun k w a -> bus_read t k w a);
              write = (fun w a v -> bus_write t w a v);
            };
          cycles = 0;
          insns = 0;
        };
      stats = Trace.create_stats ();
      console = Buffer.create 64;
      halted = false;
      sw_fault = None;
      host_call = (fun _ _ -> ());
      on_event = None;
      on_step = None;
      emit_hook = None;
      in_step = false;
      extra_cycles = 0;
      blocks = Hashtbl.create 256;
      code_drained = 0;
    }
  in
  t

let load_words t ~addr words = Memory.blit_words t.mem ~addr words
let load_bytes t ~addr b = Memory.blit t.mem ~addr b

let set_reset_vector t entry =
  Memory.write_word t.mem Memory_map.reset_vector entry

let reset t =
  t.halted <- false;
  t.sw_fault <- None;
  Trace.reset_stats t.stats;
  t.extra_cycles <- 0;
  Buffer.clear t.console;
  Hashtbl.reset t.blocks;
  Memory.clear_code_watches t.mem;
  t.code_drained <- Memory.code_gen t.mem;
  Registers.set_pc (regs t) (Memory.read_word t.mem Memory_map.reset_vector);
  Registers.set_sp (regs t) Memory_map.sram_limit

let step t =
  (* Pre-instruction hook: the fault injector's entry point.  A plain
     [None] match when no hook is installed, so simulated cycle counts
     are identical with and without the facility armed (asserted by
     the bench suite). *)
  (match t.on_step with None -> () | Some f -> f t);
  (* Snapshot the watcher chain AFTER the step hook, so a watchpoint
     armed pre-instruction observes this instruction from its first
     event, and one armed mid-instruction starts at the next boundary
     — deterministic either way. *)
  t.emit_hook <- t.on_event;
  t.in_step <- true;
  let pc0 = pc_of t in
  let faulted f =
    emit t (Trace.Fault_event (Format.asprintf "%a" pp_fault f));
    Error f
  in
  let result =
    try
      let i = Cpu.step t.cpu in
      emit t (Trace.Exec { pc = pc0; instr = i });
      Ok i
    with
    | Fault f -> faulted f
    | Decode.Illegal word -> faulted (Illegal_instruction { pc = pc0; word })
  in
  t.in_step <- false;
  result

(* ------------------------------------------------------------------ *)
(* Tier 2: predecoded, compiled basic-block execution.                *)
(*                                                                    *)
(* [run] dispatches through a cache of predecoded blocks whenever no  *)
(* hook is armed.  The moment any step hook or event watcher is       *)
(* installed — profiler, fault injector, campaign oracle — it falls   *)
(* back to [step], the reference per-instruction path, so armed runs  *)
(* observe the exact semantics they always did.  Blocks run           *)
(* instructions as closures compiled by [Cpu.compile]; they share the *)
(* ALU, the bus and [Cycles.cycles] with [step], and the differential *)
(* tests hold the two to byte-identical simulated state.              *)
(* ------------------------------------------------------------------ *)

let hooks_armed t =
  (match t.on_step with Some _ -> true | None -> false)
  || match t.on_event with Some _ -> true | None -> false

(* Drop cached blocks overlapping spans written since the last drain.
   One integer compare when nothing changed. *)
let sync_code_cache t =
  if Memory.code_gen t.mem <> t.code_drained then begin
    let spans = Memory.take_dirty_code t.mem in
    t.code_drained <- Memory.code_gen t.mem;
    let stale =
      Hashtbl.fold
        (fun pc (b : Predecode.block) acc ->
          if
            List.exists
              (fun (a, l) -> a < b.Predecode.b_hi && a + l > b.Predecode.b_lo)
              spans
          then pc :: acc
          else acc)
        t.blocks []
    in
    List.iter (Hashtbl.remove t.blocks) stale
  end

(* [Hashtbl.find] rather than [find_opt]: a hit, the steady state,
   allocates nothing. *)
let block_at t pc =
  match Hashtbl.find t.blocks pc with
  | b -> b
  | exception Not_found ->
    let b = Predecode.build ~read_word:(Memory.read_word t.mem) ~pc in
    Memory.watch_code_span t.mem ~lo:b.Predecode.b_lo ~hi:b.Predecode.b_hi;
    Hashtbl.replace t.blocks pc b;
    b

(* One compiled closure advances PC and performs the instruction, then
   cost is charged — so a fault mid-execution leaves registers,
   statistics and cycle counts exactly as [Cpu.step] would. *)
let exec_uop t (u : Predecode.uop) =
  let cpu = t.cpu in
  u.Predecode.u_exec cpu;
  cpu.Cpu.cycles <- cpu.Cpu.cycles + u.Predecode.u_cost;
  cpu.Cpu.insns <- cpu.Cpu.insns + 1

(* Does the MPU let every instruction word of [\[lo, hi)] execute?  A
   word at an odd pc shares its segment with the even byte below it
   (segment boundaries are even), so the span is widened down to even.
   Reads the MPU's compiled view; allocates nothing. *)
let exec_span_ok t lo hi = Mpu.exec_span_ok t.mpu (lo land lnot 1) hi

(* Run uops from a block until it ends or something demands the
   per-instruction path.  Returns the fault, if one was raised.

   Exec-permission handling: one span check on [\[b_lo, b_hi)] at
   entry.  While it holds, fetch words are bulk-counted; where it is
   refused, each word is re-checked in fetch order, counting words
   only after their check passes — the slow path's exact
   fault/statistics ordering.  [Mpu.gen] is re-read per uop: when an
   instruction reconfigures the MPU, the span check is redone on the
   rest of the block. *)
let run_block t (b : Predecode.block) budget =
  t.emit_hook <- None;
  t.in_step <- true;
  let mpu_gen = ref (Mpu.gen t.mpu) in
  let span_ok = ref (exec_span_ok t b.Predecode.b_lo b.Predecode.b_hi) in
  let mem_gen0 = Memory.code_gen t.mem in
  let uops = b.Predecode.b_uops in
  let n = Array.length uops in
  let stats = t.stats in
  let fault = ref None in
  let i = ref 0 in
  (try
     let continue = ref true in
     while !continue && !i < n do
       let u = Array.unsafe_get uops !i in
       if Mpu.gen t.mpu <> !mpu_gen then begin
         mpu_gen := Mpu.gen t.mpu;
         span_ok := exec_span_ok t u.Predecode.u_pc b.Predecode.b_hi
       end;
       if !span_ok then
         stats.Trace.fetch_words <-
           stats.Trace.fetch_words + u.Predecode.u_words
       else
         for w = 0 to u.Predecode.u_words - 1 do
           mpu_check t Mpu.Exec ((u.Predecode.u_pc + (2 * w)) land 0xFFFF);
           stats.Trace.fetch_words <- stats.Trace.fetch_words + 1
         done;
       exec_uop t u;
       decr budget;
       incr i;
       (* Instruction boundary: leave the fast loop the moment state
          demands attention — halt/fault ports, a hook armed by a host
          call, a write into predecoded code (even this block's own
          bytes), or exhausted fuel. *)
       if
         t.halted
         || t.sw_fault <> None
         || hooks_armed t
         || Memory.code_gen t.mem <> mem_gen0
         || !budget = 0
       then continue := false
     done
   with Fault f -> fault := Some f);
  t.in_step <- false;
  !fault

let run ?(fuel = 10_000_000) t =
  let budget = ref fuel in
  let rec loop () =
    if t.halted then Halted
    else
      match t.sw_fault with
      | Some code -> Sw_fault code
      | None ->
        if !budget = 0 then Out_of_fuel
        else if hooks_armed t then begin
          match step t with
          | Ok _ ->
            decr budget;
            loop ()
          | Error f -> Faulted f
        end
        else begin
          sync_code_cache t;
          let b = block_at t (pc_of t) in
          if Array.length b.Predecode.b_uops = 0 then begin
            (* Not predecodable here (MMIO fetch, illegal word, wrap):
               one reference step does exactly what decode would. *)
            match step t with
            | Ok _ ->
              decr budget;
              loop ()
            | Error f -> Faulted f
          end
          else
            match run_block t b budget with
            | None -> loop ()
            | Some f -> Faulted f
        end
  in
  loop ()

let mem_checked_read t width addr = Memory.read t.mem width addr
let mem_checked_write t width addr v = Memory.write t.mem width addr v
let console_contents t = Buffer.contents t.console
