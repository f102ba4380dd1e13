(** One app section of a linked image, as every binary certifier reads
    it.

    The image's symbol table is the contract between the toolchain and
    the certifiers.  The toolchain declares each name once:
    {!Amulet_cc.Isolation} for sections, functions and dispatch stubs,
    {!Amulet_cc.Runtime} for helpers, {!Amulet_cc.Apis} for gates.
    This module is the one place that reads them back, and
    {!Cfi} reads its result and carries it to every pass over the CFG
    instead of matching symbol names. *)

(** What an app may call or branch to outside its own section. *)
type extern =
  | Helper of Amulet_cc.Runtime.helper
  | Gate of string  (** service name, e.g. [api_log_append] *)
  | Os_return  (** the OS return path the exit stub branches to *)

type entry = { addr : int; symbol : string }

type t = {
  s_prefix : string;
  s_code_lo : int;
  s_code_hi : int;
  s_data_lo : int;
  s_data_hi : int;
  s_stack_top : int option;  (** rounded down to even *)
  s_fetch : int -> int;  (** 16-bit word fetch over the image *)
  s_functions : entry list;  (** in the code section, address order *)
  s_handlers : string list;  (** symbols of the functions events enter *)
  s_stubs : entry list;  (** fault and exit stubs, address order *)
  s_exit : entry option;
  s_externs : (int, extern) Hashtbl.t;  (** by entry address *)
}

val of_image : Amulet_link.Image.t -> prefix:string -> t
(** @raise Invalid_argument when the image lacks [prefix]'s code or
    data section bounds. *)

val apps : Amulet_link.Image.t -> string list
(** App prefixes in the image, in address order. *)

val function_at : t -> int -> string option
val stub_at : t -> int -> string option

val extern_symbol : extern -> string

val extern_stack_bytes : extern -> int
(** App-stack bytes one call occupies below the caller's SP. *)
