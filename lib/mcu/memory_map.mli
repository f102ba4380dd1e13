(** Address-space layout of the simulated MSP430FR5969-class MCU.

    The 64 KiB address space follows the real part (SLAS704 datasheet):

    {v
      0x0000 - 0x0FFF   peripheral registers (MMIO)
      0x1000 - 0x17FF   bootstrap loader ROM
      0x1800 - 0x19FF   information memory (InfoMem, 512 B FRAM)
      0x1C00 - 0x23FF   SRAM (2 KiB)
      0x4400 - 0xFF7F   main FRAM (code + data)
      0xFF80 - 0xFFFF   interrupt vector table
    v}

    Everything else is unmapped and faults on access. *)

type region =
  | Peripherals
  | Bootstrap
  | Info_mem
  | Sram
  | Fram
  | Vectors
  | Unmapped

val region_of_addr : int -> region
val region_name : region -> string

val peripherals_start : int
val peripherals_limit : int

val info_mem_start : int
val info_mem_limit : int

val sram_start : int
val sram_limit : int

val fram_start : int
val fram_limit : int
(** Main FRAM range checked by the MPU: [fram_start, fram_limit). *)

val vectors_start : int
val vectors_limit : int

val address_space : int
(** Total size of the address space (65536). *)

val reset_vector : int
(** Address holding the reset entry point (0xFFFE). *)
