(* amulet objdump: build a firmware from WearC sources and print the
   disassembly of its sections — handy for inspecting exactly which
   checks each isolation mode inserts. *)

module Iso = Amulet_cc.Isolation
module Aft = Amulet_aft.Aft

(* --cfg: print each app's reconstructed control-flow graph (basic
   blocks with cycle counts and successor edges) instead of the linear
   disassembly, reusing the CFI pass so what is shown is exactly what
   the certifier proved over.  Loop structure comes from the same
   Loopbound pass the WCET certifier collapses with, so the headers
   and back edges shown are the ones a bound must cover. *)

module Cfi = Amulet_analysis.Cfi
module LB = Amulet_analysis.Loopbound
module J = Amulet_obs.Json

let pp_loops bounds (f : Cfi.func) =
  match LB.analyze (LB.of_func f) with
  | LB.Irreducible { edge_src; edge_dst } ->
    Format.printf "; %s: IRREDUCIBLE (retreating edge %04X -> %04X)@."
      f.Cfi.f_name edge_src edge_dst
  | LB.Reducible [] -> ()
  | LB.Reducible loops ->
    List.iter
      (fun (l : LB.loop) ->
        Format.printf "; %s: loop header %04X, body %d block(s), back %s%s@."
          f.Cfi.f_name l.LB.l_header
          (List.length l.LB.l_body)
          (String.concat ", "
             (List.map
                (fun (s, _) -> Printf.sprintf "%04X" s)
                l.LB.l_back_edges))
          (match Hashtbl.find_opt bounds l.LB.l_header with
          | Some b -> Printf.sprintf ", bound %d" b
          | None -> ", UNBOUNDED"))
      loops

let json_of_func bounds (f : Cfi.func) =
  let loops =
    match LB.analyze (LB.of_func f) with
    | LB.Irreducible { edge_src; edge_dst } ->
      [
        ( "irreducible",
          J.Obj [ ("from", J.Int edge_src); ("to", J.Int edge_dst) ] );
      ]
    | LB.Reducible loops ->
      [
        ( "loops",
          J.Arr
            (List.map
               (fun (l : LB.loop) ->
                 J.Obj
                   ([
                      ("header", J.Int l.LB.l_header);
                      ( "back_edges",
                        J.Arr
                          (List.map (fun (s, _) -> J.Int s) l.LB.l_back_edges)
                      );
                      ("body", J.Arr (List.map (fun a -> J.Int a) l.LB.l_body));
                    ]
                   @
                   match Hashtbl.find_opt bounds l.LB.l_header with
                   | Some b -> [ ("bound", J.Int b) ]
                   | None -> []))
               loops) );
      ]
  in
  J.Obj
    ([
       ("name", J.Str f.Cfi.f_name);
       ("entry", J.Int f.Cfi.f_entry);
       ( "blocks",
         J.Arr
           (List.map
              (fun (b : Cfi.block) ->
                J.Obj
                  [
                    ("addr", J.Int b.Cfi.b_addr);
                    ("cycles", J.Int b.Cfi.b_cycles);
                    ("insns", J.Int (List.length b.Cfi.b_insns));
                    ( "succs",
                      J.Arr (List.map (fun (a, _) -> J.Int a) b.Cfi.b_succs)
                    );
                  ])
              f.Cfi.f_blocks) );
     ]
    @ loops)

let dump_cfg fw mode json =
  let image = fw.Aft.fw_image in
  let bounds = Amulet_analysis.Wcet.loop_bounds image in
  let rc = ref 0 in
  let apps =
    List.map
      (fun ab ->
        let prefix = ab.Aft.ab_name in
        (prefix, Cfi.reconstruct ~image ~mode ~prefix))
      fw.Aft.fw_apps
  in
  if json then
    print_string
      (J.to_string
         (J.Obj
            [
              ("mode", J.Str (Iso.name mode));
              ( "apps",
                J.Arr
                  (List.map
                     (fun (prefix, res) ->
                       match res with
                       | Ok cfg ->
                         J.Obj
                           [
                             ("name", J.Str prefix);
                             ( "functions",
                               J.Arr
                                 (List.map (json_of_func bounds)
                                    (Cfi.functions cfg)) );
                           ]
                       | Error vs ->
                         rc := 1;
                         J.Obj
                           [
                             ("name", J.Str prefix);
                             ( "cfi_violations",
                               J.Arr
                                 (List.map
                                    (fun (v : Cfi.violation) ->
                                      J.Str
                                        (Format.asprintf "%a"
                                           Cfi.pp_violation v))
                                    vs) );
                           ])
                     apps) );
            ])
      ^ "\n")
  else
    List.iter
      (fun (prefix, res) ->
        Format.printf "@.; ==== %s control-flow graph ====@." prefix;
        match res with
        | Ok cfg ->
          Format.printf "%a" Cfi.pp_cfg cfg;
          List.iter (pp_loops bounds) (Cfi.functions cfg)
        | Error vs ->
          List.iter
            (fun v ->
              Format.printf "; CFI violation: %a@." Cfi.pp_violation v)
            vs;
          rc := 1)
      apps;
  !rc

let dump_disasm fw os_too =
  let machine = Amulet_mcu.Machine.create () in
  Amulet_link.Image.load fw.Aft.fw_image machine;
  let fetch a = Amulet_mcu.Machine.mem_checked_read machine Amulet_mcu.Word.W16 a in
  let symbols = fw.Aft.fw_image.Amulet_link.Image.symbols in
  (* per-function check statistics, shown next to the function label *)
  let fn_stats = Hashtbl.create 32 in
  List.iter
    (fun ab ->
      List.iter
        (fun fi ->
          let mangled =
            Iso.mangle ~prefix:ab.Aft.ab_name
              fi.Amulet_cc.Codegen.fi_name
          in
          match List.assoc_opt mangled symbols with
          | Some addr -> Hashtbl.replace fn_stats addr fi
          | None -> ())
        ab.Aft.ab_compiled.Amulet_cc.Driver.infos)
    fw.Aft.fw_apps;
  let dump title lo hi =
    Format.printf "@.; ---- %s (%04X..%04X) ----@." title lo hi;
    List.iter
      (fun (line : Amulet_mcu.Disasm.line) ->
        (match Hashtbl.find_opt fn_stats line.Amulet_mcu.Disasm.addr with
        | Some fi ->
          Hashtbl.remove fn_stats line.Amulet_mcu.Disasm.addr;
          let s = fi.Amulet_cc.Codegen.fi_sites in
          Format.printf "; %s: %d checked, %d elided, %d static sites@."
            fi.Amulet_cc.Codegen.fi_name s.Amulet_cc.Codegen.checked
            s.Amulet_cc.Codegen.elided fi.Amulet_cc.Codegen.fi_static_sites
        | None -> ());
        Format.printf "%a@." Amulet_mcu.Disasm.pp_line line)
      (Amulet_mcu.Disasm.range ~symbols ~fetch ~lo ~hi ())
  in
  if os_too then
    dump "os_code" fw.Aft.fw_layout.Amulet_aft.Layout.os_code_base
      (fw.Aft.fw_layout.Amulet_aft.Layout.os_code_base
      + fw.Aft.fw_layout.Amulet_aft.Layout.os_code_size);
  List.iter
    (fun (a : Amulet_aft.Layout.app_layout) ->
      dump (a.Amulet_aft.Layout.name ^ " code") a.Amulet_aft.Layout.code_base
        (a.Amulet_aft.Layout.code_base + a.Amulet_aft.Layout.code_size))
    fw.Aft.fw_layout.Amulet_aft.Layout.apps;
  0

let run mode os_too cfg json apps () =
  let fw = Cli.build mode apps in
  if cfg then dump_cfg fw mode json else dump_disasm fw os_too

open Cmdliner

let os_arg =
  Arg.(value & flag & info [ "os" ] ~doc:"Also disassemble the OS code section.")

let cfg_arg =
  Arg.(
    value & flag
    & info [ "cfg" ]
        ~doc:
          "Print each app's reconstructed control-flow graph (basic blocks \
           with cycle counts and successors) instead of the disassembly.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "With $(b,--cfg): emit the graph as JSON (blocks with cycle \
           counts, loop headers, back edges and stamped iteration bounds) \
           instead of text.")

let cmd =
  Cli.cmd "objdump" ~doc:"disassemble a built firmware image"
    Term.(const run $ Cli.mode $ os_arg $ cfg_arg $ json_arg $ Cli.apps)
