module M = Amulet_mcu.Machine
module Trace = Amulet_mcu.Trace

type value = Vint of int | Vstr of string

type record =
  | Span of {
      name : string;
      cat : string;
      ts : int;
      dur : int;
      tid : int;
      args : (string * value) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : int;
      tid : int;
      args : (string * value) list;
    }
  | Counter of { name : string; ts : int; value : int }

let record_ts = function
  | Span { ts; _ } | Instant { ts; _ } | Counter { ts; _ } -> ts

let arg r key =
  match r with
  | Span { args; _ } | Instant { args; _ } -> List.assoc_opt key args
  | Counter { name; value; _ } -> if key = name then Some (Vint value) else None

let int_arg r key =
  match arg r key with Some (Vint n) -> Some n | _ -> None

let str_arg r key =
  match arg r key with Some (Vstr s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Chrome trace_event encoding.  ts/dur are raw cycle integers:
   1 trace-µs ≡ 1 cycle, so the round-trip is exact. *)

let json_of_value = function Vint n -> Json.Int n | Vstr s -> Json.Str s

let json_of_args args =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)

let json_of_record = function
  | Span { name; cat; ts; dur; tid; args } ->
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("ph", Json.Str "X");
        ("ts", Json.Int ts);
        ("dur", Json.Int dur);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", json_of_args args);
      ]
  | Instant { name; cat; ts; tid; args } ->
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("ph", Json.Str "i");
        ("ts", Json.Int ts);
        ("s", Json.Str "t");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", json_of_args args);
      ]
  | Counter { name; ts; value } ->
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "C");
        ("ts", Json.Int ts);
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("value", Json.Int value) ]);
      ]

let args_of_json j =
  match Json.member "args" j with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Int n -> Some (k, Vint n)
        | Json.Float f -> Some (k, Vint (int_of_float f))
        | Json.Str s -> Some (k, Vstr s)
        | _ -> None)
      fields
  | _ -> []

let record_of_json j =
  let str key = Option.bind (Json.member key j) Json.to_str in
  let num key = Option.bind (Json.member key j) Json.to_int in
  let name = Option.value ~default:"" (str "name") in
  let cat = Option.value ~default:"" (str "cat") in
  let ts = Option.value ~default:0 (num "ts") in
  let tid = Option.value ~default:0 (num "tid") in
  match str "ph" with
  | Some "X" ->
    Some
      (Span
         {
           name;
           cat;
           ts;
           dur = Option.value ~default:0 (num "dur");
           tid;
           args = args_of_json j;
         })
  | Some "i" | Some "I" -> Some (Instant { name; cat; ts; tid; args = args_of_json j })
  | Some "C" ->
    let value =
      match args_of_json j with
      | (_, Vint n) :: _ -> n
      | _ -> 0
    in
    Some (Counter { name; ts; value })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Sinks *)

type sink = { output : record -> unit; close : unit -> unit }

(* Both channel- and buffer-backed variants share a writer pair. *)
type writer = { put : string -> unit; finish : unit -> unit }

let channel_writer oc =
  { put = (fun s -> output_string oc s); finish = (fun () -> close_out oc) }

let buffer_writer buf =
  { put = Buffer.add_string buf; finish = (fun () -> ()) }

let chrome_of_writer w =
  let first = ref true in
  w.put "{\"traceEvents\":[";
  {
    output =
      (fun r ->
        if !first then first := false else w.put ",\n";
        w.put (Json.to_string (json_of_record r)));
    close =
      (fun () ->
        w.put "]}\n";
        w.finish ());
  }

let jsonl_of_writer w =
  {
    output =
      (fun r ->
        w.put (Json.to_string (json_of_record r));
        w.put "\n");
    close = w.finish;
  }

let chrome_sink oc = chrome_of_writer (channel_writer oc)
let jsonl_sink oc = jsonl_of_writer (channel_writer oc)
let chrome_buffer_sink buf = chrome_of_writer (buffer_writer buf)
let jsonl_buffer_sink buf = jsonl_of_writer (buffer_writer buf)

(* Reading back: a Chrome document ({"traceEvents":[...]} or a bare
   array) or a JSONL stream.  A JSONL line that does not parse raises
   [Json.Parse_error] naming its 1-based line number. *)

let records_of_document j =
  let arr =
    match Json.member "traceEvents" j with
    | Some (Json.Arr xs) -> xs
    | _ -> ( match j with Json.Arr xs -> xs | _ -> [ j ])
  in
  List.filter_map record_of_json arr

let jsonl_record ~line text =
  match Json.parse text with
  | j -> record_of_json j
  | exception Json.Parse_error msg ->
    raise (Json.Parse_error (Printf.sprintf "line %d: %s" line msg))

let records_of_string text =
  let trimmed = String.trim text in
  let jsonl () =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter_map (fun (line, l) ->
           if l = "" then None else jsonl_record ~line l)
  in
  if trimmed = "" then []
  else if trimmed.[0] = '[' then records_of_document (Json.parse trimmed)
  else
    (* one Chrome document, or a JSONL stream (which fails to parse as
       a single value) *)
    match Json.parse trimmed with
    | j -> records_of_document j
    | exception Json.Parse_error _ -> jsonl ()

let pp_args ppf args =
  List.iter
    (fun (k, v) ->
      match v with
      | Vint n -> Format.fprintf ppf " %s=%d" k n
      | Vstr s -> Format.fprintf ppf " %s=%s" k s)
    args

let console_sink ppf =
  {
    output =
      (fun r ->
        (match r with
        | Span { name; cat; ts; dur; tid; args } ->
          Format.fprintf ppf "[%10d] span    %-20s %s tid=%d dur=%d%a@." ts
            name cat tid dur pp_args args
        | Instant { name; cat; ts; tid; args } ->
          Format.fprintf ppf "[%10d] instant %-20s %s tid=%d%a@." ts name cat
            tid pp_args args
        | Counter { name; ts; value } ->
          Format.fprintf ppf "[%10d] counter %-20s = %d@." ts name value));
    close = (fun () -> Format.pp_print_flush ppf ());
  }

(* ------------------------------------------------------------------ *)
(* Context *)

type t = {
  mutable sinks : sink list;
  ring : Trace.ring;
  mutable prof : Profile.t option;
}

let create ?(ring_capacity = 64) () =
  { sinks = []; ring = Trace.create_ring ~capacity:ring_capacity; prof = None }

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]
let enable_profile t fw = t.prof <- Some (Profile.create fw)
let profile t = t.prof
let ring t = t.ring

let emit t r = List.iter (fun s -> s.output r) t.sinks

let span t ?(cat = "") ?(tid = 0) ?(args = []) ~name ~ts ~dur () =
  emit t (Span { name; cat; ts; dur; tid; args })

let instant t ?(cat = "") ?(tid = 0) ?(args = []) ~name ~ts () =
  emit t (Instant { name; cat; ts; tid; args })

let counter t ~name ~ts value = emit t (Counter { name; ts; value })

(* Publish the profiler's cumulative per-category cycle totals as
   counters, so energy attribution can be recovered from any trace.
   A no-op without a profiler, and sinkless emission costs nothing —
   the zero-overhead-when-off obs tests cover both. *)
let emit_profile_counters t ~ts =
  match t.prof with
  | None -> ()
  | Some p ->
    if t.sinks <> [] then
      List.iter
        (fun (c, cycles) ->
          counter t ~name:(Profile.counter_name c) ~ts cycles)
        (Profile.totals p)

let attach t machine =
  let prev = machine.M.on_event in
  machine.M.on_event <-
    Some
      (fun e ->
        (match prev with Some f -> f e | None -> ());
        Trace.record t.ring e;
        match (t.prof, e) with
        | Some p, Trace.Exec { pc; instr } ->
          Profile.step p ~pc ~cycles:(Amulet_mcu.Cycles.cycles instr)
        | _ -> ())

let close t =
  List.iter (fun s -> s.close ()) t.sinks;
  t.sinks <- []

(* ------------------------------------------------------------------ *)
(* Aggregated counters *)

module Metrics = struct
  type cell = {
    mutable count : int;
    mutable cycles : int;
    mutable reads : int;
    mutable writes : int;
    mutable api_calls : int;
  }

  type t = (string list, cell) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let bump t key ~count ~cycles ~reads ~writes ~api_calls =
    let cell =
      match Hashtbl.find_opt t key with
      | Some c -> c
      | None ->
        let c = { count = 0; cycles = 0; reads = 0; writes = 0; api_calls = 0 } in
        Hashtbl.add t key c;
        c
    in
    cell.count <- cell.count + count;
    cell.cycles <- cell.cycles + cycles;
    cell.reads <- cell.reads + reads;
    cell.writes <- cell.writes + writes;
    cell.api_calls <- cell.api_calls + api_calls

  let find t key = Hashtbl.find_opt t key
  let fold f (t : t) acc = Hashtbl.fold f t acc
end
