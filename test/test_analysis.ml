(* Range-analysis tests: which guards get elided, that elision never
   changes program results, and that provably-out-of-bounds accesses
   become compile errors instead of run-time faults. *)

module Cc = Amulet_cc
module H = Test_support.Harness

let compile ?elide mode src = Cc.Driver.compile ~prefix:"prog" ~mode ?elide src

let totals (cu : Cc.Driver.compiled) =
  List.fold_left
    (fun (c, e) (fi : Cc.Codegen.fn_info) ->
      ( c + fi.Cc.Codegen.fi_sites.Cc.Codegen.checked,
        e + fi.Cc.Codegen.fi_sites.Cc.Codegen.elided ))
    (0, 0) cu.Cc.Driver.infos

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Both dereference sites use a masked index, so the analysis can
   bound the address without any help from the guards. *)
let masked_src =
  "int a[8];\n\
   int main() { int i; int s = 0;\n\
   for (i = 0; i < 20; i++) a[i & 7] = i;\n\
   for (i = 0; i < 20; i++) s += a[i & 7];\n\
   return s; }"

let masked_result = 318

let test_masked_sites_elided () =
  let cu = compile Cc.Isolation.Software_only masked_src in
  let checked, elided = totals cu in
  Alcotest.(check int) "checked" 0 checked;
  Alcotest.(check int) "elided" 2 elided

let test_no_analyze_keeps_guards () =
  let cu = compile ~elide:false Cc.Isolation.Software_only masked_src in
  let checked, elided = totals cu in
  Alcotest.(check int) "elided" 0 elided;
  Alcotest.(check bool) "checked" true (checked >= 2)

(* Elision must not change what the program computes, in any mode. *)
let test_semantics_preserved () =
  List.iter
    (fun mode -> H.check_main ~mode ~expect:masked_result masked_src)
    Cc.Isolation.all

let unsafe_src = "int a[4];\nint main() { int i = 6; a[i] = 1; return 0; }"

(* The analysis runs on every compile, so turning elision off must not
   let a proven-out-of-bounds access through. *)
let test_proven_unsafe () =
  let rejected what build =
    match build () with
    | exception Cc.Srcloc.Error (_, msg) ->
      Alcotest.(check bool)
        (what ^ ": diagnostic mentions provably out of bounds: " ^ msg)
        true
        (contains msg "provably out of bounds")
    | _ -> Alcotest.fail (what ^ ": expected a proven-unsafe compile error")
  in
  rejected "elide" (fun () ->
      H.build ~mode:Cc.Isolation.Software_only unsafe_src);
  rejected "no elide" (fun () ->
      compile ~elide:false Cc.Isolation.Software_only unsafe_src)

(* An index arriving through a parameter is unbounded: the analysis
   must keep the guard. *)
let test_param_index_still_checked () =
  let cu =
    compile Cc.Isolation.Software_only
      "int a[8];\nint get(int i) { return a[i]; }\nint main() { return get(3); }"
  in
  let get =
    List.find
      (fun (fi : Cc.Codegen.fn_info) -> fi.Cc.Codegen.fi_name = "get")
      cu.Cc.Driver.infos
  in
  Alcotest.(check int) "checked" 1 get.Cc.Codegen.fi_sites.Cc.Codegen.checked;
  Alcotest.(check int) "elided" 0 get.Cc.Codegen.fi_sites.Cc.Codegen.elided

let () =
  Alcotest.run "analysis"
    [
      ( "elision",
        [
          Alcotest.test_case "masked sites elided" `Quick
            test_masked_sites_elided;
          Alcotest.test_case "no analysis keeps guards" `Quick
            test_no_analyze_keeps_guards;
          Alcotest.test_case "parameter index still checked" `Quick
            test_param_index_still_checked;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "semantics preserved" `Quick
            test_semantics_preserved;
          Alcotest.test_case "proven unsafe is a compile error" `Quick
            test_proven_unsafe;
        ] );
    ]
