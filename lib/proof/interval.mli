(** Half-open address intervals [lo, hi) — the abstract domain of the
    proof engine.  Guards and MPU boundaries partition the address
    space into ranges that behave uniformly; an interval entirely
    inside one partition class stands for every concrete address in
    it. *)

type t

val make : int -> int -> t
(** [make lo hi] is [[lo, hi)].  @raise Invalid_argument when empty or
    outside the 64 KiB address space. *)

val lo : t -> int
val hi : t -> int
val mem : int -> t -> bool
val subset : t -> t -> bool
val inter : t -> t -> t option

val below : int -> t -> bool
(** [below cut t]: [t] lies entirely below address [cut] — the shape
    of the compiler's lower-bound deref guard. *)

val above : int -> t -> bool
(** [above cut t]: [t] lies entirely at or above [cut] — the shape of
    the upper-bound guard. *)

val width : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
