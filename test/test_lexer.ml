(* Unit tests for the Lime lexer. *)

open Lime_frontend

let toks src = List.map (fun l -> l.Lexer.tok) (Lexer.tokenize src)

let tok = Alcotest.testable (Fmt.of_to_string Token.to_string) ( = )

let check_toks name src expected =
  Alcotest.(check (list tok)) name (expected @ [ Token.EOF ]) (toks src)

let test_idents_keywords () =
  check_toks "keywords vs identifiers" "class value foo task taskx"
    Token.[ KW_CLASS; KW_VALUE; IDENT "foo"; KW_TASK; IDENT "taskx" ]

let test_numbers () =
  check_toks "ints and floats" "0 42 1.5f 2.5 1e3 7L 0x1F 2.0d"
    Token.
      [
        INT 0L; INT 42L; FLOAT 1.5; DOUBLE 2.5; DOUBLE 1000.0; INT 7L;
        INT 31L; DOUBLE 2.0;
      ]

let test_hex_long () =
  check_toks "hex with long suffix" "0xFFL" Token.[ INT 255L ];
  check_toks "big hex" "0x7FFFFFFFFFFFFFFF"
    Token.[ INT Int64.max_int ]

let test_operators () =
  check_toks "compound operators" "== != <= >= && || << >> >>> => ++ -- += @ !"
    Token.
      [
        EQ; NE; LE; GE; ANDAND; OROR; SHL; SHR; USHR; CONNECT; PLUSPLUS;
        MINUSMINUS; PLUS_ASSIGN; AT; BANG;
      ]

let test_brackets () =
  (* adjacent brackets fuse; separated ones do not *)
  check_toks "fused" "[[ ]]" Token.[ DLBRACKET; DRBRACKET ];
  check_toks "split" "[ [ ] ]"
    Token.[ LBRACKET; LBRACKET; RBRACKET; RBRACKET ];
  check_toks "value array type" "float[[][4]]"
    Token.
      [
        KW_FLOAT; DLBRACKET; RBRACKET; LBRACKET; INT 4L; DRBRACKET;
      ]

let test_nested_index () =
  (* a[b[i]] ends with a fused ]] the parser re-splits *)
  check_toks "nested index" "a[b[i]]"
    Token.
      [
        IDENT "a"; LBRACKET; IDENT "b"; LBRACKET; IDENT "i"; DRBRACKET;
      ]

let test_comments () =
  check_toks "line comment" "a // comment here\n b"
    Token.[ IDENT "a"; IDENT "b" ];
  check_toks "block comment" "a /* x\n y */ b" Token.[ IDENT "a"; IDENT "b" ]

let test_strings_chars () =
  check_toks "char and string" {|'x' "hi\n"|}
    Token.[ CHARLIT 'x'; STRINGLIT "hi\n" ];
  check_toks "escaped char" {|'\n'|} Token.[ CHARLIT '\n' ]

let test_positions () =
  let ls = Lexer.tokenize ~name:"t" "ab\n  cd" in
  let second = List.nth ls 1 in
  Alcotest.(check int) "line" 2
    (Lime_support.Loc.start_pos_of second.Lexer.loc).Lime_support.Loc.line;
  Alcotest.(check int) "col" 2
    (Lime_support.Loc.start_pos_of second.Lexer.loc).Lime_support.Loc.col

let expect_lex_error src =
  match Lime_support.Diag.protect (fun () -> Lexer.tokenize src) with
  | Ok _ -> Alcotest.fail ("expected lex error for: " ^ src)
  | Error d ->
      Alcotest.(check bool) "lexer phase" true (d.Lime_support.Diag.phase = Lime_support.Diag.Lexer)

let test_errors () =
  expect_lex_error "a $ b";
  expect_lex_error "\"unterminated";
  expect_lex_error "'a";
  expect_lex_error "/* unterminated"

(* Goldens computed before the index-scanning lexer replaced the
   per-character one: the new lexer must reproduce every token, every
   location (offsets included) and every diagnostic of the old. *)

module Corpus = Frontend_corpus

let token_line (name, src) =
  Corpus.digest
    (fun (l : Lexer.located) ->
      let exact =
        match l.tok with
        | Token.FLOAT f | Token.DOUBLE f -> Printf.sprintf " %h" f
        | _ -> ""
      in
      Token.to_string l.tok ^ exact ^ " " ^ Corpus.loc_string l.loc)
    (Lexer.tokenize ~name src)

let test_golden_tokens () =
  let sources = Corpus.registry_sources () @ Corpus.generated_sources () in
  Alcotest.(check int) "sources" 222 (List.length sources);
  Alcotest.(check string) "token digest" "d2202aeafa0c039697dedd2f1b7b5b67"
    (Corpus.digest token_line sources)

(* Each mutant either lexes, pinned by its token digest, or fails with a
   lexer diagnostic, pinned by its text, span and offsets. *)
let test_golden_diagnostics () =
  let lexed, diags =
    List.partition_map
      (fun (name, src) ->
        match Lime_support.Diag.protect (fun () -> token_line (name, src)) with
        | Ok toks -> Left toks
        | Error d -> Right (Corpus.diag_string d))
      (Corpus.mutants ~seed:18 2000)
  in
  Alcotest.(check int) "lexer errors" 230 (List.length diags);
  Alcotest.(check string) "diagnostic digest" "fd9083c1c7c8393bb8eaf179b55781f6"
    (Corpus.digest Fun.id diags);
  Alcotest.(check string) "lexed-mutant digest" "783bc113cfccb9edc8d40a10b77229d5"
    (Corpus.digest Fun.id lexed)

let () =
  Alcotest.run "lexer"
    [
      ( "tokens",
        [
          Alcotest.test_case "idents/keywords" `Quick test_idents_keywords;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "hex/long" `Quick test_hex_long;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "brackets" `Quick test_brackets;
          Alcotest.test_case "nested index" `Quick test_nested_index;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "strings/chars" `Quick test_strings_chars;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "golden",
        [
          Alcotest.test_case "registry and generated tokens" `Quick
            test_golden_tokens;
          Alcotest.test_case "mutant diagnostics" `Quick test_golden_diagnostics;
        ] );
    ]
