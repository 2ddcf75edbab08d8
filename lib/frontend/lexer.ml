(** Hand-written lexer for the Lime subset.

    Produces a list of located tokens in one pass.  Menhir/ocamllex are not
    used: a hand-written scanner keeps the front end dependency-free and
    gives precise span information for the double-bracket value-array tokens
    ([\[\[] / [\]\]]), which do not tokenize naturally with longest-match
    generators when mixed with nested index expressions like [a\[b\[i\]\]].

    Disambiguation of [\[\[] is therefore *deferred to the parser*: the lexer
    emits [DLBRACKET]/[DRBRACKET] greedily, and the parser re-splits them when
    the context demands single brackets (this never happens in practice for
    well-formed Lime, because [a\[b\[i\]\]] contains a space-free [\[\[)]...
    To avoid that trap entirely, the lexer only fuses brackets when they are
    *immediately* adjacent AND the preceding token is a type-ish token
    (identifier/primitive keyword/[\]\]]/[\]]), i.e. in type position.  In
    expressions [a\[b\[i\]\]] the preceding token before [\[\[] is an
    identifier too — so instead we use a simpler, fully reliable rule:
    brackets fuse only when adjacent, and the parser accepts both fused and
    split forms everywhere, translating between them as needed. *)

open Lime_support

type located = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  name : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let mk_state ?(name = "<inline>") src = { src; name; pos = 0; line = 1; col = 0 }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let peek3 st =
  if st.pos + 2 < String.length st.src then Some st.src.[st.pos + 2] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 0
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let cur_pos st : Loc.pos = { line = st.line; col = st.col; offset = st.pos }

let error ?start st fmt =
  let p = cur_pos st in
  let start_pos = Option.value start ~default:p in
  let loc = Loc.make ~source:st.name ~start_pos ~end_pos:p in
  Diag.error ~phase:Diag.Lexer ~loc fmt

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '/' when peek2 st = Some '/' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec to_close () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | None, _ -> error st "unterminated block comment"
        | Some _, _ ->
            advance st;
            to_close ()
      in
      to_close ();
      skip_trivia st
  | _ -> ()

(* [conv text] for the number literal that began at offset [start]; a
   literal never spans lines, so its start column is recovered only when
   it is rejected *)
let number st start conv text =
  match conv text with
  | Some v -> v
  | None ->
      let p = cur_pos st in
      let start =
        { p with Loc.col = p.col - (st.pos - start); offset = start }
      in
      error ~start st "invalid number literal %s" text

let lex_number st =
  let start = st.pos in
  let is_hex_lit =
    peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X')
  in
  if is_hex_lit then begin
    advance st;
    advance st;
    while (match peek st with Some c -> is_hex c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    (* optional long suffix *)
    (match peek st with Some ('l' | 'L') -> advance st | _ -> ());
    Token.INT (number st start Int64.of_string_opt text)
  end
  else begin
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let is_float = ref false in
    (match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c ->
        is_float := true;
        advance st;
        while (match peek st with Some c -> is_digit c | None -> false) do
          advance st
        done
    | _ -> ());
    (match peek st with
    | Some ('e' | 'E') ->
        is_float := true;
        advance st;
        (match peek st with Some ('+' | '-') -> advance st | _ -> ());
        while (match peek st with Some c -> is_digit c | None -> false) do
          advance st
        done
    | _ -> ());
    let text = String.sub st.src start (st.pos - start) in
    match peek st with
    | Some ('f' | 'F') ->
        advance st;
        Token.FLOAT (number st start float_of_string_opt text)
    | Some ('d' | 'D') ->
        advance st;
        Token.DOUBLE (number st start float_of_string_opt text)
    | Some ('l' | 'L') ->
        advance st;
        Token.INT (number st start Int64.of_string_opt text)
    | _ ->
        if !is_float then
          Token.DOUBLE (number st start float_of_string_opt text)
        else Token.INT (number st start Int64.of_string_opt text)
  end

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match List.assoc_opt text Token.keyword_table with
  | Some kw -> kw
  | None -> Token.IDENT text

let lex_char_escape st =
  match peek st with
  | Some 'n' -> advance st; '\n'
  | Some 't' -> advance st; '\t'
  | Some 'r' -> advance st; '\r'
  | Some '\\' -> advance st; '\\'
  | Some '\'' -> advance st; '\''
  | Some '"' -> advance st; '"'
  | Some '0' -> advance st; '\000'
  | _ -> error st "unknown escape sequence"

let lex_one st : Token.t =
  let open Token in
  match peek st with
  | None -> EOF
  | Some c when is_digit c -> lex_number st
  | Some c when is_ident_start c -> lex_ident st
  | Some '\'' ->
      advance st;
      let ch =
        match peek st with
        | Some '\\' ->
            advance st;
            lex_char_escape st
        | Some c ->
            advance st;
            c
        | None -> error st "unterminated character literal"
      in
      (match peek st with
      | Some '\'' -> advance st
      | _ -> error st "unterminated character literal");
      CHARLIT ch
  | Some '"' ->
      advance st;
      let buf = Buffer.create 16 in
      let rec go () =
        match peek st with
        | Some '"' -> advance st
        | Some '\\' ->
            advance st;
            Buffer.add_char buf (lex_char_escape st);
            go ()
        | Some c ->
            advance st;
            Buffer.add_char buf c;
            go ()
        | None -> error st "unterminated string literal"
      in
      go ();
      STRINGLIT (Buffer.contents buf)
  | Some '(' -> advance st; LPAREN
  | Some ')' -> advance st; RPAREN
  | Some '{' -> advance st; LBRACE
  | Some '}' -> advance st; RBRACE
  | Some '[' ->
      advance st;
      if peek st = Some '[' then (advance st; DLBRACKET) else LBRACKET
  | Some ']' ->
      advance st;
      if peek st = Some ']' then (advance st; DRBRACKET) else RBRACKET
  | Some ';' -> advance st; SEMI
  | Some ',' -> advance st; COMMA
  | Some '.' -> advance st; DOT
  | Some '?' -> advance st; QUESTION
  | Some ':' -> advance st; COLON
  | Some '@' -> advance st; AT
  | Some '~' -> advance st; TILDE
  | Some '=' ->
      advance st;
      (match peek st with
      | Some '=' -> advance st; EQ
      | Some '>' -> advance st; CONNECT
      | _ -> ASSIGN)
  | Some '!' ->
      advance st;
      if peek st = Some '=' then (advance st; NE) else BANG
  | Some '<' ->
      advance st;
      (match peek st with
      | Some '=' -> advance st; LE
      | Some '<' -> advance st; SHL
      | _ -> LT)
  | Some '>' ->
      advance st;
      (match (peek st, peek2 st) with
      | Some '=', _ -> advance st; GE
      | Some '>', Some '>' ->
          advance st;
          advance st;
          USHR
      | Some '>', _ -> advance st; SHR
      | _ -> GT)
  | Some '+' ->
      advance st;
      (match peek st with
      | Some '+' -> advance st; PLUSPLUS
      | Some '=' -> advance st; PLUS_ASSIGN
      | _ -> PLUS)
  | Some '-' ->
      advance st;
      (match peek st with
      | Some '-' -> advance st; MINUSMINUS
      | Some '=' -> advance st; MINUS_ASSIGN
      | _ -> MINUS)
  | Some '*' ->
      advance st;
      if peek st = Some '=' then (advance st; STAR_ASSIGN) else STAR
  | Some '/' ->
      advance st;
      if peek st = Some '=' then (advance st; SLASH_ASSIGN) else SLASH
  | Some '%' -> advance st; PERCENT
  | Some '&' ->
      advance st;
      if peek st = Some '&' then (advance st; ANDAND) else AMP
  | Some '|' ->
      advance st;
      if peek st = Some '|' then (advance st; OROR) else PIPE
  | Some '^' -> advance st; CARET
  | Some c -> error st "unexpected character %C" c

(** Tokenize a full source string. *)
let tokenize ?(name = "<inline>") src : located list =
  let st = mk_state ~name src in
  let rec go acc =
    skip_trivia st;
    let start = cur_pos st in
    let tok = lex_one st in
    let stop = cur_pos st in
    let loc = Loc.make ~source:name ~start_pos:start ~end_pos:stop in
    let item = { tok; loc } in
    match tok with Token.EOF -> List.rev (item :: acc) | _ -> go (item :: acc)
  in
  go []

(* Quiet the unused warning for peek3 which exists for future lookahead. *)
let _ = peek3
