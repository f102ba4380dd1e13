type mode = No_isolation | Feature_limited | Software_only | Mpu_assisted

let name = function
  | No_isolation -> "no-isolation"
  | Feature_limited -> "feature-limited"
  | Software_only -> "software-only"
  | Mpu_assisted -> "mpu"

let of_string = function
  | "no-isolation" | "none" -> Some No_isolation
  | "feature-limited" | "amuletc" -> Some Feature_limited
  | "software-only" | "software" -> Some Software_only
  | "mpu" | "mpu-assisted" -> Some Mpu_assisted
  | _ -> None

let all = [ No_isolation; Feature_limited; Software_only; Mpu_assisted ]
let allows_pointers = function Feature_limited -> false | _ -> true
let allows_recursion = function Feature_limited -> false | _ -> true

let checks_lower_bound = function
  | Software_only | Mpu_assisted -> true
  | No_isolation | Feature_limited -> false

let checks_upper_bound = function
  | Software_only -> true
  | No_isolation | Feature_limited | Mpu_assisted -> false

let uses_mpu = function Mpu_assisted -> true | _ -> false

let separate_stacks = function
  | Software_only | Mpu_assisted -> true
  | No_isolation | Feature_limited -> false

let mangle ~prefix name = if prefix = "" then name else prefix ^ "$" ^ name

(* Inverse of [mangle] for function symbols: compiler-internal labels
   carry a second '$' and are no functions. *)
let function_of_symbol ~prefix sym =
  let p = prefix ^ "$" and n = String.length prefix + 1 in
  if String.starts_with ~prefix:p sym then
    let name = String.sub sym n (String.length sym - n) in
    if name <> "" && not (String.contains name '$') then Some name else None
  else None

let is_handler name = String.starts_with ~prefix:"handle_" name

let code_section ~prefix = if prefix = "" then "os_code" else prefix ^ "_code"
let data_section ~prefix = if prefix = "" then "os_data" else prefix ^ "_data"
let code_lo_sym ~prefix = code_section ~prefix ^ "__start"
let code_hi_sym ~prefix = code_section ~prefix ^ "__end"
let data_lo_sym ~prefix = data_section ~prefix ^ "__start"
let data_hi_sym ~prefix = data_section ~prefix ^ "__end"

let app_of_code_lo_sym sym =
  let suffix = "_code__start" in
  let n = String.length sym - String.length suffix in
  if n > 0 && String.ends_with ~suffix sym && sym <> code_lo_sym ~prefix:""
  then Some (String.sub sym 0 n)
  else None

(* Label placed at the top of each app's stack area (= base of its
   globals, rounded down to even).  The AFT layout and the standalone
   test harness both emit it, so binary-level analyses can recover the
   stack region [data_lo, stack_top) from the link map alone. *)
let stack_top_sym ~prefix =
  (if prefix = "" then "os" else prefix) ^ "$$stack_top"

let fault_data_lo = 1
let fault_data_hi = 2
let fault_code_ptr = 3
let fault_ret_addr = 4
let fault_array_bounds = 5
let fault_shadow_stack = 6

(* Shadow return-address stack (the paper's envisioned use of the
   InfoMem): the stack pointer cell sits at the bottom of InfoMem and
   entries grow upward behind it. *)
let shadow_sp_addr = 0x1800
let shadow_base = 0x1802

let guard_start_suffix = "$gs"
let guard_end_suffix = "$ge"

let stub_owner prefix = if prefix = "" then "os" else prefix

let fault_stub_label ~prefix reason =
  Printf.sprintf "%s$$fault%d" (stub_owner prefix) reason

let is_fault_stub ~prefix sym =
  String.starts_with ~prefix:(stub_owner prefix ^ "$$fault") sym

let tramp_label ~prefix = "__tramp_" ^ prefix
let tramp_stack_bytes = 4
let exit_label ~prefix = "__exit_" ^ prefix
let osreturn_label = "__osreturn"
