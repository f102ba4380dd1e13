type compiled = {
  prefix : string;
  mode : Isolation.mode;
  code : Amulet_link.Asm.item list;
  data : Amulet_link.Asm.item list;
  infos : Codegen.fn_info list;
  handlers : string list;
  stack_bytes : int;
  recursive : bool;
  loops : (string * int) list;
}

let default_stack_bytes = 512

let compile ~prefix ~mode ?(shadow = false) ?(elide = true) source =
  let ast = Parser.parse source in
  Feature_check.check ~mode ast;
  let externals = Runtime.builtin_externals @ Apis.signatures in
  let tast = Typecheck.check ~externals ast in
  (* the range analysis runs once, between type checking and code
     generation, and may itself reject proven-out-of-bounds accesses;
     [elide] only decides whether codegen sees its site classes *)
  let range = Range.run tast in
  let classify =
    if elide then range.Range.classify else fun _ -> Codegen.Needs_check
  in
  let out =
    Codegen.gen_program ~prefix ~mode ~shadow ~classify
      ~loop_bound:range.Range.loop_bound tast
  in
  let roots =
    let mains =
      List.filter_map
        (fun fi ->
          if fi.Codegen.fi_name = "main" then Some fi.Codegen.fi_name
          else None)
        out.Codegen.infos
    in
    out.Codegen.handlers @ mains
  in
  let recursive =
    List.exists
      (fun root ->
        match Stack_depth.analyze out.Codegen.infos ~root with
        | Stack_depth.Recursive _ -> true
        | Stack_depth.Finite _ -> false)
      roots
  in
  let stack_bytes =
    max 64
      (Stack_depth.worst_case out.Codegen.infos ~roots
         ~default:default_stack_bytes)
  in
  {
    prefix;
    mode;
    code = out.Codegen.code;
    data = out.Codegen.data;
    infos = out.Codegen.infos;
    handlers = out.Codegen.handlers;
    stack_bytes;
    recursive;
    loops = out.Codegen.loops;
  }
