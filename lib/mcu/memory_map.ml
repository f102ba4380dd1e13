type region =
  | Peripherals
  | Bootstrap
  | Info_mem
  | Sram
  | Fram
  | Vectors
  | Unmapped

let peripherals_start = 0x0000
let peripherals_limit = 0x1000
let bootstrap_start = 0x1000
let bootstrap_limit = 0x1800
let info_mem_start = 0x1800
let info_mem_limit = 0x1A00
let sram_start = 0x1C00
let sram_limit = 0x2400
let fram_start = 0x4400
let fram_limit = 0xFF80
let vectors_start = 0xFF80
let vectors_limit = 0x10000
let address_space = 0x10000
let reset_vector = 0xFFFE

let region_of_addr a =
  if a >= fram_start && a < fram_limit then Fram
  else if a >= sram_start && a < sram_limit then Sram
  else if a >= peripherals_start && a < peripherals_limit then Peripherals
  else if a >= vectors_start && a < vectors_limit then Vectors
  else if a >= info_mem_start && a < info_mem_limit then Info_mem
  else if a >= bootstrap_start && a < bootstrap_limit then Bootstrap
  else Unmapped

let region_name = function
  | Peripherals -> "peripherals"
  | Bootstrap -> "bootstrap"
  | Info_mem -> "infomem"
  | Sram -> "sram"
  | Fram -> "fram"
  | Vectors -> "vectors"
  | Unmapped -> "unmapped"
