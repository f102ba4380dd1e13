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

let create_stats () = { fetch_words = 0; data_reads = 0; data_writes = 0 }

let reset_stats s =
  s.fetch_words <- 0;
  s.data_reads <- 0;
  s.data_writes <- 0

type ring = { buf : event option array; mutable next : int; mutable count : int }

let create_ring ~capacity =
  { buf = Array.make (max 1 capacity) None; next = 0; count = 0 }

let record r e =
  r.buf.(r.next) <- Some e;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.count <- min (r.count + 1) (Array.length r.buf)

let events r =
  let cap = Array.length r.buf in
  let start = (r.next - r.count + cap) mod cap in
  List.init r.count (fun i ->
      match r.buf.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let width_tag = function Word.W8 -> "b" | Word.W16 -> "w"

let pp_event ppf = function
  | Exec { pc; instr } ->
    Format.fprintf ppf "%04X: %a" pc Opcode.pp instr
  | Mem_read { addr; width; value; pc } ->
    Format.fprintf ppf "%04X: read.%s  [%04X] -> %04X" pc (width_tag width)
      addr value
  | Mem_write { addr; width; value; pc } ->
    Format.fprintf ppf "%04X: write.%s [%04X] <- %04X" pc (width_tag width)
      addr value
  | Io_write { addr; value } ->
    Format.fprintf ppf "io [%04X] <- %04X" addr value
  | Fault_event s -> Format.fprintf ppf "fault: %s" s
