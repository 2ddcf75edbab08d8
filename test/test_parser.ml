(* Unit tests for the Lime parser: expression shapes, precedence, types,
   declarations, and error reporting. *)

open Lime_frontend
open Lime_frontend.Ast

let e src = Parser.expr_of_string src
let s src = Parser.stmt_of_string src
let p src = Parser.program_of_string src

let estr src = expr_to_string (e src)

let check name expected src = Alcotest.(check string) name expected (estr src)

let test_precedence () =
  check "mul over add" "(1 + (2 * 3))" "1 + 2 * 3";
  check "parens" "((1 + 2) * 3)" "(1 + 2) * 3";
  check "comparison" "((a + b) < (c * d))" "a + b < c * d";
  check "logical" "((a < b) && (c > d))" "a < b && c > d";
  check "bitwise vs logical" "((a & b) != 0)" "(a & b) != 0";
  check "shift" "((x << 2) + y)" "(x << 2) + y";
  check "ternary" "((a < b) ? a : b)" "a < b ? a : b";
  check "unary minus" "((-a) * b)" "-a * b";
  check "not" "((!a) || b)" "!a || b"

let test_postfix () =
  check "index chain" "a[i][j]" "a[i][j]";
  check "nested index fused brackets" "a[b[i]]" "a[b[i]]";
  check "field" "a.length" "a.length";
  check "call" "Math.sqrt(x)" "Math.sqrt(x)";
  check "call on result" "f.g(x)[1]" "f.g(x)[1]"

let test_map_reduce () =
  check "map" "(NBody.forceOne(particles) @ particles)"
    "NBody.forceOne(particles) @ particles";
  check "map method ref" "(NBody.f @ xs)" "NBody.f @ xs";
  check "reduce op" "(+ ! xs)" "+ ! xs";
  check "reduce method" "(Math.max ! xs)" "Math.max ! xs";
  check "map binds tighter than add" "(y + (F.f @ xs))" "y + F.f @ xs";
  (* '!' in prefix position is still logical not *)
  check "prefix not" "(!flag)" "!flag"

let test_task_connect () =
  check "static task" "task NBody.computeForces" "task NBody.computeForces";
  check "instance task" "task NBody(n).particleGen" "task NBody(n).particleGen";
  check "connect chain" "((task A.src => task B.f) => task C.sink)"
    "task A.src => task B.f => task C.sink";
  check "finish call" "(task A.src => task C.sink).finish(10)"
    "(task A.src => task C.sink).finish(10)"

let test_new_exprs () =
  check "new object" "new Foo(1, 2)" "new Foo(1, 2)";
  check "array literal" "{ 1, 2, 3 }" "{1, 2, 3}";
  (* mutable array creation *)
  (match (e "new float[10]").e with
  | ENewArray (TArray (TPrim PFloat, DimDyn), [ _ ]) -> ()
  | _ -> Alcotest.fail "new float[10] shape");
  (match (e "new int[n][m]").e with
  | ENewArray (TArray (TArray (TPrim PInt, DimDyn), DimDyn), [ _; _ ]) -> ()
  | _ -> Alcotest.fail "new int[n][m] shape")

let test_cast () =
  check "primitive cast" "((float) x)" "(float) x";
  check "cast in expr" "(((int) f) + 1)" "(int) f + 1";
  (* parenthesized variable is not a cast *)
  check "paren var" "(x + 1)" "(x) + 1"

let parse_ty src =
  (* parse through a declaration *)
  match (s (src ^ " v;")).s with
  | SVarDecl (t, _, _) -> t
  | _ -> Alcotest.fail "expected a declaration"

let test_types () =
  Alcotest.(check string) "value 2d" "float[[][4]]"
    (ty_to_string (parse_ty "float[[][4]]"));
  Alcotest.(check string) "bounded" "int[[64]]"
    (ty_to_string (parse_ty "int[[64]]"));
  Alcotest.(check string) "mutable" "byte[]" (ty_to_string (parse_ty "byte[]"));
  Alcotest.(check string) "mixed dims" "int[][[4]]"
    (ty_to_string (parse_ty "int[][[4]]"));
  Alcotest.(check string) "3d value" "float[[][][2]]"
    (ty_to_string (parse_ty "float[[][][2]]"))

let test_stmts () =
  (match (s "int x = 1;").s with
  | SVarDecl (TPrim PInt, "x", Some _) -> ()
  | _ -> Alcotest.fail "vardecl");
  (match (s "x += 2;").s with
  | SAssign (_, { e = EBinop (Add, _, _); _ }) -> ()
  | _ -> Alcotest.fail "compound assign desugars");
  (match (s "i++;").s with
  | SAssign (_, { e = EBinop (Add, _, _); _ }) -> ()
  | _ -> Alcotest.fail "increment desugars");
  (match (s "if (a < b) { x = 1; } else y = 2;").s with
  | SIf (_, _, Some _) -> ()
  | _ -> Alcotest.fail "if/else");
  (match (s "for (int i = 0; i < n; i++) sum += i;").s with
  | SFor (Some _, Some _, Some _, _) -> ()
  | _ -> Alcotest.fail "for");
  (match (s "while (x < 10) { x++; }").s with
  | SWhile (_, _) -> ()
  | _ -> Alcotest.fail "while");
  (match (s "return { a, b };").s with
  | SReturn (Some { e = EArrayLit _; _ }) -> ()
  | _ -> Alcotest.fail "return literal")

let test_class_decl () =
  let prog =
    p
      {|
value class Pt {
  final float x;
}
class C {
  static final int N = 4;
  int state;
  C(int n) { state = n; }
  static local float f(float a) { return a; }
  void g() { }
}
|}
  in
  Alcotest.(check int) "two classes" 2 (List.length prog);
  let pt = List.hd prog in
  Alcotest.(check bool) "value class" true pt.c_value;
  let c = List.nth prog 1 in
  Alcotest.(check int) "fields" 2 (List.length c.c_fields);
  Alcotest.(check int) "methods (incl ctor)" 3 (List.length c.c_methods);
  let ctor = List.find (fun m -> m.m_name = "<init>") c.c_methods in
  Alcotest.(check int) "ctor params" 1 (List.length ctor.m_params);
  let f = List.find (fun m -> m.m_name = "f") c.c_methods in
  Alcotest.(check bool) "static local" true
    (is_static f.m_mods && is_local f.m_mods)

let expect_parse_error src =
  match Lime_support.Diag.protect (fun () -> p src) with
  | Ok _ -> Alcotest.fail ("expected parse error: " ^ src)
  | Error d ->
      Alcotest.(check bool) "parser phase" true
        (d.Lime_support.Diag.phase = Lime_support.Diag.Parser)

let test_errors () =
  expect_parse_error "class { }";
  expect_parse_error "class C { int }";
  expect_parse_error "class C { void f() { return 1 } }";
  expect_parse_error "class C { void f() { 1 + ; } }";
  (* reduce with non-method-ref left operand *)
  expect_parse_error "class C { void f() { int x = (1+2) ! xs; } }"

let test_print_parse_stable () =
  (* printing then reparsing then printing is a fixpoint *)
  let srcs =
    [
      "a + b * c - d / e % f";
      "x < y && y <= z || !w";
      "a[i][j] + m.length";
      "Math.pow(x, 2.0f) @ xs";
      "(a ^ b) | (c & d) << 2 >>> 3";
      "cond ? x + 1 : y - 1";
    ]
  in
  List.iter
    (fun src ->
      let once = estr src in
      let twice = expr_to_string (e once) in
      Alcotest.(check string) ("fixpoint: " ^ src) once twice)
    srcs

(* Goldens computed before the parser's token stream and token tests were
   rewritten: every AST (locations included) and every diagnostic must stay
   as it was.  An AST is pinned by its unshared marshalled bytes. *)

module Corpus = Frontend_corpus

let parse (name, src) =
  Lime_support.Diag.protect (fun () -> Parser.program_of_string ~name src)

let outcome_string = function
  | Ok ast ->
      "ast " ^ Digest.to_hex (Digest.string (Marshal.to_string ast [ Marshal.No_sharing ]))
  | Error d -> Corpus.diag_string d

let test_golden_asts () =
  let sources = Corpus.registry_sources () @ Corpus.generated_sources () in
  Alcotest.(check string) "AST digest" "2935431f202dcde380f0cb7189ca956b"
    (Corpus.digest (fun s -> outcome_string (parse s)) sources)

let test_golden_diagnostics () =
  let outcomes = List.map parse (Corpus.mutants ~seed:18 2000) in
  let parser_errors =
    List.filter
      (function Error d -> d.Lime_support.Diag.phase = Parser | Ok _ -> false)
      outcomes
  in
  Alcotest.(check int) "parser errors" 1413 (List.length parser_errors);
  Alcotest.(check string) "outcome digest" "694b28deed07c4d3fbeefb0be0ca3212"
    (Corpus.digest outcome_string outcomes)

(* [Array.of_list] on freshly lexed tokens once forced a full minor
   collection on every parse: a young first element seeding an array too
   large for the minor heap.  Lexing and parsing the largest registry
   source allocates far less than the default minor heap, so from an
   empty minor heap neither may collect. *)
let test_no_minor_gc () =
  let minor_heap = (Gc.get ()).minor_heap_size in
  if minor_heap < 262_144 then
    Printf.printf "skipped: minor heap is %d words, below the default 256k\n"
      minor_heap
  else begin
    let src =
      List.fold_left
        (fun a (_, s) -> if String.length s > String.length a then s else a)
        "" (Corpus.registry_sources ())
    in
    Gc.minor ();
    let before = (Gc.quick_stat ()).minor_collections in
    let ast = Parser.program_of_tokens (Lexer.tokenize src) in
    let after = (Gc.quick_stat ()).minor_collections in
    ignore (Sys.opaque_identity ast);
    Alcotest.(check int) "minor collections" before after
  end

let () =
  Alcotest.run "parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "postfix" `Quick test_postfix;
          Alcotest.test_case "map/reduce" `Quick test_map_reduce;
          Alcotest.test_case "task/connect" `Quick test_task_connect;
          Alcotest.test_case "new" `Quick test_new_exprs;
          Alcotest.test_case "cast" `Quick test_cast;
        ] );
      ( "types",
        [ Alcotest.test_case "dimension syntax" `Quick test_types ] );
      ( "statements", [ Alcotest.test_case "forms" `Quick test_stmts ] );
      ( "declarations",
        [ Alcotest.test_case "classes" `Quick test_class_decl ] );
      ( "errors", [ Alcotest.test_case "rejects" `Quick test_errors ] );
      ( "stability",
        [ Alcotest.test_case "print-parse fixpoint" `Quick test_print_parse_stable ] );
      ( "golden",
        [
          Alcotest.test_case "registry and generated ASTs" `Quick test_golden_asts;
          Alcotest.test_case "mutant diagnostics" `Quick test_golden_diagnostics;
          Alcotest.test_case "no minor GC per parse" `Quick test_no_minor_gc;
        ] );
    ]
