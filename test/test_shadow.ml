(* Shadow return-address stack tests (the paper's future-work
   hardening: a return-address stack in InfoMem).  It must be
   transparent to correct programs under every isolation mode, and it
   must catch return-address corruption even where the mode alone
   would not. *)

module H = Test_support.Harness
module Iso = Amulet_cc.Isolation
module M = Amulet_mcu.Machine
module Aft = Amulet_aft.Aft
module Os = Amulet_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Transparent for correct code: deep call chains and recursion give
   the same results with the shadow stack armed. *)
let test_transparent_all_modes () =
  let src =
    "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
     int main() { return fib(12); }"
  in
  List.iter
    (fun mode ->
      if Iso.allows_recursion mode then
        H.check_main ~mode ~shadow:true ~expect:144 src)
    Iso.all;
  (* and an iterative, array-flavoured program for feature-limited *)
  H.check_main ~mode:Iso.Feature_limited ~shadow:true ~expect:34
    "int tab[10];\n\
     int main() { int i; tab[0] = 0; tab[1] = 1;\n\
     for (i = 2; i < 10; i++) tab[i] = tab[i-1] + tab[i-2];\n\
     return tab[9]; }"

(* A return-address smash that no-isolation alone cannot see: the
   overwrite stays inside mapped memory (the shared SRAM stack), the
   function returns to attacker-chosen territory.  With the shadow
   stack the mismatch faults before the RET. *)
let smash_src =
  "int n = 6;\n\
   int smash() {\n\
   \  int a[2];\n\
   \  int i;\n\
   \  for (i = 0; i < n; i++) a[i] = 0x9000;\n\
   \  return a[0];\n\
   }\n\
   int main() { return smash(); }"

let test_catches_smash_noiso () =
  let r = H.run ~mode:Iso.No_isolation ~shadow:true smash_src in
  match r.H.stop with
  | M.Sw_fault c when c = Iso.fault_shadow_stack -> ()
  | other ->
    Alcotest.failf "expected shadow-stack fault, got %a" M.pp_stop_reason
      other

let test_noiso_alone_misses_smash () =
  (* sanity: without the shadow stack, no-isolation returns to 0x9000
     and executes whatever sits there (here: zeros -> illegal/unmapped
     behaviour, but no *detected isolation fault* at the RET) *)
  let r = H.run ~mode:Iso.No_isolation smash_src in
  match r.H.stop with
  | M.Sw_fault _ -> Alcotest.fail "no checks should exist here"
  | _ -> ()

let test_catches_smash_under_mpu () =
  let r = H.run ~mode:Iso.Mpu_assisted ~shadow:true smash_src in
  match r.H.stop with
  | M.Sw_fault c
    when c = Iso.fault_shadow_stack || c = Iso.fault_data_lo
         || c = Iso.fault_data_hi ->
    ()
  | M.Faulted (M.Mpu_violation _) -> ()
  | other -> Alcotest.failf "uncaught: %a" M.pp_stop_reason other

(* Under the kernel: firmware built with ~shadow:true runs apps
   normally and the InfoMem pointer cell is live. *)
let test_kernel_with_shadow () =
  let app =
    "int count = 0;\n\
     int helper(int x) { return x + 1; }\n\
     void handle_init(int arg) { api_set_timer(100); }\n\
     void handle_timer(int arg) { count = helper(count); }\n"
  in
  List.iter
    (fun mode ->
      let fw =
        Aft.build ~mode ~shadow:true [ { Aft.name = "app"; source = app } ]
      in
      let k = Os.Kernel.create fw in
      let _ = Os.Kernel.run_for_ms k 1_000 in
      let st = Os.Kernel.app_by_name k "app" in
      (match st.Os.Kernel.last_fault with
      | Some f -> Alcotest.failf "%s: faulted: %a" (Iso.name mode) Os.Kernel.pp_fault f
      | None -> ());
      let count =
        M.mem_checked_read k.Os.Kernel.machine Amulet_mcu.Word.W16
          (Amulet_link.Image.symbol k.Os.Kernel.fw.Aft.fw_image "app$count")
      in
      check_bool (Iso.name mode ^ ": timer ran") true (count >= 8);
      (* the shadow pointer cell rests at its base between dispatches *)
      check_int
        (Iso.name mode ^ ": shadow sp balanced")
        Iso.shadow_base
        (M.mem_checked_read k.Os.Kernel.machine Amulet_mcu.Word.W16
           Iso.shadow_sp_addr))
    Iso.all

(* The cost: shadow push/check adds a fixed number of cycles per call.
   Measure it and insist it stays modest (the ablation bench reports
   the exact value). *)
let test_shadow_cost_bounded () =
  let src =
    "int leaf(int x) { return x + 1; }\n\
     int main() { int i; int s = 0; for (i = 0; i < 50; i++) s = leaf(s); \
     return s; }"
  in
  let cycles shadow =
    let r = H.run_ok ~mode:Iso.No_isolation ~shadow src in
    M.cycles r.H.machine
  in
  let plain = cycles false and hardened = cycles true in
  let per_call = float_of_int (hardened - plain) /. 51.0 in
  check_bool
    (Printf.sprintf "cost/call %.1f cycles in [10, 60]" per_call)
    true
    (per_call >= 10.0 && per_call <= 60.0)

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "shadow"
    [
      ( "shadow-stack",
        [
          quick "transparent" test_transparent_all_modes;
          quick "catches smash (no-isolation)" test_catches_smash_noiso;
          quick "baseline misses smash" test_noiso_alone_misses_smash;
          quick "catches smash (mpu)" test_catches_smash_under_mpu;
          quick "kernel integration" test_kernel_with_shadow;
          quick "bounded cost" test_shadow_cost_bounded;
        ] );
    ]
