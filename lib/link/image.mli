(** Linked firmware image: binary chunks, symbol table, entry point. *)

type t = {
  chunks : (int * Bytes.t) list;  (** (base address, contents) *)
  symbols : (string * int) list;
  entry : int;
  notes : (string * string) list;
      (** free-form certification metadata attached after linking,
          e.g. ["cert.gates.<app>"] -> comma-separated service names *)
}

val symbol : t -> string -> int
(** @raise Not_found when the symbol is undefined. *)

val has_symbol : t -> string -> bool

val word : t -> int -> int
(** [word t a] is the little-endian 16-bit word at [a], read from the
    chunk holding both of its bytes; 0 outside every chunk. *)

val patch : t -> addr:int -> int list -> t
(** [patch t ~addr words] is a copy of [t] with the little-endian
    16-bit [words] written from [addr] on; [t] is left unchanged.
    @raise Invalid_argument unless one chunk holds every patched
    byte. *)

val note : t -> string -> string option
(** Look up a metadata note by key. *)

val with_notes : t -> (string * string) list -> t

val load : t -> Amulet_mcu.Machine.t -> unit
(** Blit all chunks into machine memory and point the reset vector at
    the entry symbol.  Does not reset the machine. *)

val total_bytes : t -> int

val span : t -> string -> (int * int) option
(** [span t name] is the half-open address range [\[addr, next)] from
    the symbol to the next strictly-greater symbol in the same chunk
    (or the chunk end).  [None] when the symbol is undefined. *)

val nearest_symbol : t -> int -> (string * int) option
(** Greatest symbol at or below an address (skipping [..__end]
    markers) — used to name the code that owns a PC. *)

val pp_symbols : Format.formatter -> t -> unit
