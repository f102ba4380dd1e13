type t = {
  chunks : (int * Bytes.t) list;
  symbols : (string * int) list;
  entry : int;
  notes : (string * string) list;
      (* free-form certification metadata attached after linking,
         e.g. "cert.gates.<app>" -> comma-separated service names *)
}

let symbol t name = List.assoc name t.symbols
let note t key = List.assoc_opt key t.notes
let with_notes t notes = { t with notes }
let has_symbol t name = List.mem_assoc name t.symbols

let word t a =
  let rec go = function
    | [] -> 0
    | (base, b) :: rest ->
      if a >= base && a + 1 < base + Bytes.length b then
        Char.code (Bytes.get b (a - base))
        lor (Char.code (Bytes.get b (a - base + 1)) lsl 8)
      else go rest
  in
  go t.chunks

let patch t ~addr words =
  let n = 2 * List.length words in
  let hit = ref false in
  let chunks =
    List.map
      (fun (base, b) ->
        if addr >= base && addr + n <= base + Bytes.length b then begin
          hit := true;
          let b = Bytes.copy b in
          List.iteri
            (fun i w ->
              Bytes.set_uint16_le b (addr - base + (2 * i)) (w land 0xFFFF))
            words;
          (base, b)
        end
        else (base, b))
      t.chunks
  in
  if not !hit then
    invalid_arg
      (Printf.sprintf "Image.patch: %04X+%d outside every chunk" addr n);
  { t with chunks }

let chunk_containing t addr =
  List.find_opt
    (fun (base, b) -> addr >= base && addr < base + Bytes.length b)
    t.chunks

let span t name =
  match List.assoc_opt name t.symbols with
  | None -> None
  | Some addr -> (
    match chunk_containing t addr with
    | None -> Some (addr, addr)
    | Some (base, b) ->
      let chunk_end = base + Bytes.length b in
      let next =
        List.fold_left
          (fun acc (_, a) -> if a > addr && a < acc then a else acc)
          chunk_end t.symbols
      in
      Some (addr, next))

let nearest_symbol t addr =
  List.fold_left
    (fun acc (name, a) ->
      if a > addr then acc
      else
        match acc with
        | Some (_, best) when best >= a -> acc
        | _ ->
          (* prefer start-of-range names over end markers at equal addr *)
          if String.length name > 5
             && String.sub name (String.length name - 5) 5 = "__end"
          then acc
          else Some (name, a))
    None t.symbols

let load t machine =
  List.iter
    (fun (addr, data) -> Amulet_mcu.Machine.load_bytes machine ~addr data)
    t.chunks;
  Amulet_mcu.Machine.set_reset_vector machine t.entry

let total_bytes t =
  List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 t.chunks

let pp_symbols ppf t =
  List.iter
    (fun (name, addr) -> Format.fprintf ppf "%04X %s@." addr name)
    (List.sort (fun (_, a) (_, b) -> compare a b) t.symbols)
