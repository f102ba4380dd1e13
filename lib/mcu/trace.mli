(** Execution tracing and access statistics.

    {!Stats} counters are always maintained by the machine; the event
    ring buffer is optional and intended for debugging and for the
    profiler's access-site analysis. *)

type event =
  | Exec of { pc : int; instr : Opcode.t }
  | Mem_read of { addr : int; width : Word.width; value : int; pc : int }
  | Mem_write of { addr : int; width : Word.width; value : int; pc : int }
  | Io_write of { addr : int; value : int }
  | Fault_event of string

type stats = {
  mutable fetch_words : int;
  mutable data_reads : int;
  mutable data_writes : int;
}

val create_stats : unit -> stats
val reset_stats : stats -> unit

type ring
(** Fixed-capacity recorder of the most recent events. *)

val create_ring : capacity:int -> ring
val record : ring -> event -> unit
val events : ring -> event list
(** Oldest first. *)

val pp_event : Format.formatter -> event -> unit
