(* The certifiers' side of the symbol contract; see section.mli. *)

module I = Amulet_link.Image
module Iso = Amulet_cc.Isolation
module Apis = Amulet_cc.Apis

type extern = Helper of Amulet_cc.Runtime.helper | Gate of string | Os_return
type entry = { addr : int; symbol : string }

type t = {
  s_prefix : string;
  s_code_lo : int;
  s_code_hi : int;
  s_data_lo : int;
  s_data_hi : int;
  s_stack_top : int option;
  s_fetch : int -> int;
  s_functions : entry list;
  s_handlers : string list;
  s_stubs : entry list;
  s_exit : entry option;
  s_externs : (int, extern) Hashtbl.t;
}

let extern_symbol = function
  | Helper h -> h.Amulet_cc.Runtime.name
  | Gate svc -> Apis.gate_label svc
  | Os_return -> Iso.osreturn_label

(* The OS return path never returns and pushes nothing on the app
   stack, so a call to it costs only its return address. *)
let extern_stack_bytes = function
  | Helper h -> h.Amulet_cc.Runtime.stack_bytes
  | Gate _ -> Apis.gate_stack_bytes
  | Os_return -> 2

let of_image (image : I.t) ~prefix =
  let sym name =
    try I.symbol image name
    with Not_found ->
      invalid_arg
        (Printf.sprintf "image has no symbol %s (prefix %S)" name prefix)
  in
  let code_lo = sym (Iso.code_lo_sym ~prefix) in
  let code_hi = sym (Iso.code_hi_sym ~prefix) in
  let entries keep =
    List.filter_map
      (fun (symbol, addr) ->
        if addr >= code_lo && addr < code_hi && keep symbol then
          Some { addr; symbol }
        else None)
      image.I.symbols
    |> List.sort compare
  in
  let fn_name = Iso.function_of_symbol ~prefix in
  let functions = entries (fun s -> Option.is_some (fn_name s)) in
  let exit_sym = Iso.exit_label ~prefix in
  let stubs =
    entries (fun s -> Iso.is_fault_stub ~prefix s || s = exit_sym)
  in
  let externs = Hashtbl.create 16 in
  List.iter
    (fun (name, a) ->
      let kind =
        match
          (Amulet_cc.Runtime.helper name, Apis.service_of_gate_label name)
        with
        | Some h, _ -> Some (Helper h)
        | None, Some svc -> Some (Gate svc)
        | None, None when name = Iso.osreturn_label -> Some Os_return
        | None, None -> None
      in
      Option.iter (Hashtbl.replace externs a) kind)
    image.I.symbols;
  {
    s_prefix = prefix;
    s_code_lo = code_lo;
    s_code_hi = code_hi;
    s_data_lo = sym (Iso.data_lo_sym ~prefix);
    s_data_hi = sym (Iso.data_hi_sym ~prefix);
    s_stack_top =
      Option.map
        (fun a -> a land lnot 1)
        (List.assoc_opt (Iso.stack_top_sym ~prefix) image.I.symbols);
    s_fetch = I.word image;
    s_functions = functions;
    s_handlers =
      List.filter_map
        (fun e ->
          if Iso.is_handler (Option.get (fn_name e.symbol)) then Some e.symbol
          else None)
        functions;
    s_stubs = stubs;
    s_exit = List.find_opt (fun e -> e.symbol = exit_sym) stubs;
    s_externs = externs;
  }

let apps (image : I.t) =
  List.filter_map
    (fun (name, addr) ->
      Option.map (fun p -> (addr, p)) (Iso.app_of_code_lo_sym name))
    image.I.symbols
  |> List.sort compare |> List.map snd

let symbol_at entries a =
  List.find_map (fun e -> if e.addr = a then Some e.symbol else None) entries

let function_at t = symbol_at t.s_functions
let stub_at t = symbol_at t.s_stubs
