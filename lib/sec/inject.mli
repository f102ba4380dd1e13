(** Deterministic runtime fault injector.

    Models transient hardware upsets — bit flips in the register file,
    in FRAM cells, or in the MPU's own configuration registers — by
    flipping bits from the machine's pre-instruction hook
    ({!Amulet_mcu.Machine.t.on_step}).  The flip schedule is computed
    up front from a seed, so a campaign run is exactly reproducible:
    the same seed yields the same flips at the same instruction
    indices, regardless of host parallelism.

    The injector is host-side: arming it charges no simulated cycles,
    and an armed injector with zero scheduled flips leaves cycle
    counts and profiler output byte-identical to an unarmed run (the
    bench suite asserts this). *)

type target =
  | Regs  (** flip a bit in one of R4..R15 *)
  | Fram of { lo : int; hi : int }
      (** flip a bit in one byte of the span [\[lo, hi)] *)
  | Mpu_config  (** flip a bit in an MPU register cell, bypassing the
                    password (a physical upset, not a bus write) *)

type plan

val plan : seed:int -> flips:int -> window:int * int -> target -> plan
(** Schedule [flips] bit flips at instruction indices drawn uniformly
    from [window] (half-open, in executed-instruction counts), each
    with a seed-derived location. *)

type t

val arm : plan -> Amulet_mcu.Machine.t -> t
(** Install the injector on the machine's pre-instruction hook,
    composing with any hook already present. *)

val steps : t -> int
(** Instructions observed since arming. *)

val flips_done : t -> int

val log : t -> string list
(** Human-readable record of every flip applied, in order. *)
