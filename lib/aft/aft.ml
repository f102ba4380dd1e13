module A = Amulet_link.Asm
module Iso = Amulet_cc.Isolation
module Driver = Amulet_cc.Driver

type app_spec = { name : string; source : string }

type app_build = {
  ab_name : string;
  ab_compiled : Driver.compiled;
  ab_layout : Layout.app_layout;
  ab_handlers : (string * int) list;
  ab_tramp : int;
}

type firmware = {
  fw_mode : Iso.mode;
  fw_image : Amulet_link.Image.t;
  fw_layout : Layout.t;
  fw_apps : app_build list;
}

exception Build_error of string

let errf fmt = Format.kasprintf (fun s -> raise (Build_error s)) fmt

let valid_name name =
  name <> "" && name <> "os"
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       name

(* Extra stack slack per app: gate register saves (8 words), the
   trampoline's exit-stub push, the gate return address, plus margin. *)
let stack_margin = 64

let build ~mode ?(shadow = false) ?(elide = true) ?(certify = true) specs =
  (* phase 0: validate *)
  let names = List.map (fun s -> s.name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    errf "duplicate app names";
  List.iter
    (fun n -> if not (valid_name n) then errf "invalid app name '%s'" n)
    names;
  (* phases 1-2: compile each app (feature check, analysis, checked
     code generation against placeholder bound symbols) *)
  let compiled =
    List.map
      (fun s -> (s, Driver.compile ~prefix:s.name ~mode ~shadow ~elide s.source))
      specs
  in
  (* phase 3: sections and stub generation (sizing pass) *)
  let app_code_items cu spec =
    cu.Driver.code @ Stubs.exit_stub ~name:spec.name
  in
  let os_code_items ~os_cfg ~tramps =
    Amulet_cc.Runtime.items @ Stubs.startup
    @ Stubs.osreturn ~mode ~os_cfg
    @ Stubs.gates ~mode ~os_cfg
    @ tramps
  in
  let sizing_tramps =
    List.concat_map
      (fun (spec, _) ->
        Stubs.trampoline ~mode ~shadow ~name:spec.name
          ~cfg:Stubs.placeholder_cfg ~stack_top:0x7EAC ())
      compiled
  in
  let os_code_size =
    Amulet_link.Assembler.size
      (os_code_items ~os_cfg:Stubs.placeholder_cfg ~tramps:sizing_tramps)
  in
  let os_data_size = Amulet_link.Assembler.size Stubs.os_globals in
  (* phase 4: layout *)
  let app_inputs =
    List.map
      (fun (spec, cu) ->
        let code_size = Amulet_link.Assembler.size (app_code_items cu spec) in
        let gsize = (Amulet_link.Assembler.size cu.Driver.data + 1) land lnot 1 in
        let stack =
          if Iso.separate_stacks mode then cu.Driver.stack_bytes + stack_margin
          else 0
        in
        (spec.name, code_size, gsize, stack))
      compiled
  in
  let layout =
    try Layout.compute ~os_code_size ~os_data_size ~apps:app_inputs
    with Layout.Does_not_fit m -> errf "%s" m
  in
  let os_cfg = Stubs.os_mpu_cfg ~shadow ~layout () in
  let final_tramps =
    List.map2
      (fun (spec, _) lay ->
        Stubs.trampoline ~mode ~shadow ~name:spec.name
          ~cfg:(Stubs.app_mpu_cfg ~shadow lay)
          ~stack_top:lay.Layout.stack_top ())
      compiled layout.Layout.apps
    |> List.concat
  in
  let os_code = os_code_items ~os_cfg ~tramps:final_tramps in
  let final_size = Amulet_link.Assembler.size os_code in
  if final_size <> os_code_size then
    errf "internal: stub sizing drifted (%d vs %d)" final_size os_code_size;
  let sections =
    [
      { Amulet_link.Linker.name = "os_code"; base = layout.Layout.os_code_base;
        items = os_code };
      { Amulet_link.Linker.name = "os_data"; base = layout.Layout.os_data_base;
        items = Stubs.os_globals };
    ]
    @ List.concat
        (List.map2
           (fun (spec, cu) lay ->
             [
               { Amulet_link.Linker.name = Iso.code_section ~prefix:spec.name;
                 base = lay.Layout.code_base;
                 items = app_code_items cu spec };
               { Amulet_link.Linker.name = Iso.data_section ~prefix:spec.name;
                 base = lay.Layout.data_base;
                 items =
                   A.Space lay.Layout.stack_bytes
                   :: A.label (Iso.stack_top_sym ~prefix:spec.name)
                   :: cu.Driver.data };
             ])
           compiled layout.Layout.apps)
  in
  let image =
    try Amulet_link.Linker.link ~entry:"__os_start" sections
    with Amulet_link.Linker.Error m -> errf "link: %s" m
  in
  (* stamp loop iteration bounds (app loops from the range analysis,
     runtime-helper loops from their fixed structure) so the binary
     WCET pass can bound back-edges without re-running the source
     analysis.  Keys are [wcet.loop.<header label>]; header labels
     are mangled per app, so they never collide. *)
  let image =
    Amulet_link.Image.with_notes image
      (image.Amulet_link.Image.notes
      @ List.concat_map
          (fun (_, cu) ->
            List.map
              (fun (label, b) -> ("wcet.loop." ^ label, string_of_int b))
              cu.Driver.loops)
          compiled
      @ List.map
          (fun (label, b) -> ("wcet.loop." ^ label, string_of_int b))
          Amulet_cc.Runtime.loop_bounds)
  in
  (* post-link certification: run the gates chain per app and stamp
     the services whose gate-pointer validation is statically
     redundant into the image, where the kernel's gate table picks
     them up *)
  let image =
    if not certify then image
    else
      Amulet_link.Image.with_notes image
        (List.filter_map
           (fun spec ->
             Amulet_analysis.Gate_taint.note ~prefix:spec.name
               (Amulet_analysis.Lint.certified_gates ~image ~mode
                  ~prefix:spec.name))
           specs
        @ image.Amulet_link.Image.notes)
  in
  let apps =
    List.map2
      (fun (spec, cu) lay ->
        let handlers =
          List.map
            (fun h ->
              (h, Amulet_link.Image.symbol image (Iso.mangle ~prefix:spec.name h)))
            cu.Driver.handlers
        in
        {
          ab_name = spec.name;
          ab_compiled = cu;
          ab_layout = lay;
          ab_handlers = handlers;
          ab_tramp =
            Amulet_link.Image.symbol image (Iso.tramp_label ~prefix:spec.name);
        })
      compiled layout.Layout.apps
  in
  { fw_mode = mode; fw_image = image; fw_layout = layout; fw_apps = apps }

let find_app fw name = List.find (fun a -> a.ab_name = name) fw.fw_apps
let handler_addr ab h = List.assoc_opt h ab.ab_handlers
