(** Hand-written lexer for the Lime subset.

    One pass over the source by byte index produces the located tokens.
    Menhir/ocamllex are not used: a hand-written scanner keeps the front end
    dependency-free and gives precise spans for the value-array brackets.

    Adjacent brackets always fuse: [\[\[] lexes as [DLBRACKET] and [\]\]]
    as [DRBRACKET], whatever precedes them.  So the nested index [a\[b\[i\]\]]
    ends in a fused [\]\]], and the parser re-splits a fused bracket wherever
    it needs a single one.

    The scanner keeps the current line and the offset that line begins at;
    a column is the distance from that offset.  Bytes past the end read as
    NUL, so a lookahead never needs an option; wherever a NUL byte in the
    source would mean something else than the end, the position is checked
    against the length. *)

open Lime_support

type located = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  len : int;
  name : string;
  mutable pos : int;  (** offset of the next byte *)
  mutable line : int;
  mutable bol : int;  (** offset the current line begins at *)
}

(* [Token.keyword_table] bucketed by length and first byte: a lookup
   compares an identifier with at most three keywords and never hashes it *)
let max_keyword =
  List.fold_left (fun m (k, _) -> max m (String.length k)) 0 Token.keyword_table

let[@inline] bucket n c = (n lsl 8) lor Char.code c

let keywords =
  let t = Array.make (bucket (max_keyword + 1) '\000') [] in
  List.iter
    (fun ((k, _) as kw) ->
      let b = bucket (String.length k) k.[0] in
      t.(b) <- kw :: t.(b))
    Token.keyword_table;
  t

(* the byte at offset [i], or NUL past the end *)
let[@inline] at st i = if i < st.len then String.unsafe_get st.src i else '\000'

(* step over the newline just before [st.pos] *)
let[@inline] newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos

let cur_pos st : Loc.pos = { line = st.line; col = st.pos - st.bol; offset = st.pos }

let error ?start st fmt =
  let p = cur_pos st in
  let start_pos = Option.value start ~default:p in
  let loc = Loc.make ~source:st.name ~start_pos ~end_pos:p in
  Diag.error ~phase:Diag.Lexer ~loc fmt

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* the offset of the first byte from [i] on that is not a digit (resp. a
   hex digit, an identifier byte) *)
let rec digits_end st i = if is_digit (at st i) then digits_end st (i + 1) else i
let rec hex_end st i = if is_hex (at st i) then hex_end st (i + 1) else i
let rec ident_end st i = if is_ident_char (at st i) then ident_end st (i + 1) else i

let rec line_comment st =
  if st.pos < st.len && String.unsafe_get st.src st.pos <> '\n' then begin
    st.pos <- st.pos + 1;
    line_comment st
  end

(* the body of a block comment, after its opening [/*] *)
let rec block_comment st =
  if st.pos >= st.len then error st "unterminated block comment";
  match String.unsafe_get st.src st.pos with
  | '*' when at st (st.pos + 1) = '/' -> st.pos <- st.pos + 2
  | '\n' ->
      st.pos <- st.pos + 1;
      newline st;
      block_comment st
  | _ ->
      st.pos <- st.pos + 1;
      block_comment st

let rec skip_trivia st =
  match at st st.pos with
  | ' ' | '\t' | '\r' ->
      st.pos <- st.pos + 1;
      skip_trivia st
  | '\n' ->
      st.pos <- st.pos + 1;
      newline st;
      skip_trivia st
  | '/' when at st (st.pos + 1) = '/' ->
      line_comment st;
      skip_trivia st
  | '/' when at st (st.pos + 1) = '*' ->
      st.pos <- st.pos + 2;
      block_comment st;
      skip_trivia st
  | _ -> ()

(* [conv text] for the number literal that began at offset [start]; a
   literal never spans lines, so its start column is recovered only when
   it is rejected *)
let number st start conv text =
  match conv text with
  | Some v -> v
  | None ->
      let start : Loc.pos = { line = st.line; col = start - st.bol; offset = start } in
      error ~start st "invalid number literal %s" text

let lex_number st =
  let start = st.pos in
  if at st start = '0' && (at st (start + 1) = 'x' || at st (start + 1) = 'X')
  then begin
    st.pos <- hex_end st (start + 2);
    let text = String.sub st.src start (st.pos - start) in
    (* optional long suffix *)
    (match at st st.pos with 'l' | 'L' -> st.pos <- st.pos + 1 | _ -> ());
    Token.INT (number st start Int64.of_string_opt text)
  end
  else begin
    let i = ref (digits_end st start) in
    let is_float = ref false in
    if at st !i = '.' && is_digit (at st (!i + 1)) then begin
      is_float := true;
      i := digits_end st (!i + 1)
    end;
    (match at st !i with
    | 'e' | 'E' ->
        is_float := true;
        incr i;
        (match at st !i with '+' | '-' -> incr i | _ -> ());
        i := digits_end st !i
    | _ -> ());
    st.pos <- !i;
    let text = String.sub st.src start (!i - start) in
    match at st !i with
    | 'f' | 'F' ->
        st.pos <- !i + 1;
        Token.FLOAT (number st start float_of_string_opt text)
    | 'd' | 'D' ->
        st.pos <- !i + 1;
        Token.DOUBLE (number st start float_of_string_opt text)
    | 'l' | 'L' ->
        st.pos <- !i + 1;
        Token.INT (number st start Int64.of_string_opt text)
    | _ ->
        if !is_float then
          Token.DOUBLE (number st start float_of_string_opt text)
        else Token.INT (number st start Int64.of_string_opt text)
  end

let rec keyword_or_ident text = function
  | (k, tok) :: rest -> if String.equal k text then tok else keyword_or_ident text rest
  | [] -> Token.IDENT text

let lex_ident st =
  let start = st.pos in
  st.pos <- ident_end st (start + 1);
  let n = st.pos - start in
  let text = String.sub st.src start n in
  if n > max_keyword then Token.IDENT text
  else keyword_or_ident text keywords.(bucket n (String.unsafe_get st.src start))

(* the character an escape stands for, after its backslash *)
let lex_char_escape st =
  let c =
    match at st st.pos with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | '0' -> '\000'
    | _ -> error st "unknown escape sequence"
  in
  st.pos <- st.pos + 1;
  c

(* the next character of a character or string literal, [\n] included *)
let literal_char st c =
  st.pos <- st.pos + 1;
  if c = '\\' then lex_char_escape st
  else begin
    if c = '\n' then newline st;
    c
  end

let lex_char st =
  st.pos <- st.pos + 1;
  if st.pos >= st.len then error st "unterminated character literal";
  let ch = literal_char st (String.unsafe_get st.src st.pos) in
  if at st st.pos <> '\'' then error st "unterminated character literal";
  st.pos <- st.pos + 1;
  Token.CHARLIT ch

(* the body of a string literal, after its opening quote *)
let rec string_body st buf =
  if st.pos >= st.len then error st "unterminated string literal";
  match String.unsafe_get st.src st.pos with
  | '"' -> st.pos <- st.pos + 1
  | c ->
      Buffer.add_char buf (literal_char st c);
      string_body st buf

let lex_string st =
  st.pos <- st.pos + 1;
  let buf = Buffer.create 16 in
  string_body st buf;
  Token.STRINGLIT (Buffer.contents buf)

let[@inline] single st t =
  st.pos <- st.pos + 1;
  t

(* [one] when the byte after the current one is not [next]; else [two],
   consuming both *)
let[@inline] pair st next one two =
  if at st (st.pos + 1) = next then (st.pos <- st.pos + 2; two)
  else (st.pos <- st.pos + 1; one)

let punct st c : Token.t =
  let open Token in
  match c with
  | '(' -> single st LPAREN
  | ')' -> single st RPAREN
  | '{' -> single st LBRACE
  | '}' -> single st RBRACE
  | '[' -> pair st '[' LBRACKET DLBRACKET
  | ']' -> pair st ']' RBRACKET DRBRACKET
  | ';' -> single st SEMI
  | ',' -> single st COMMA
  | '.' -> single st DOT
  | '?' -> single st QUESTION
  | ':' -> single st COLON
  | '@' -> single st AT
  | '~' -> single st TILDE
  | '=' -> (
      match at st (st.pos + 1) with
      | '>' -> st.pos <- st.pos + 2; CONNECT
      | _ -> pair st '=' ASSIGN EQ)
  | '!' -> pair st '=' BANG NE
  | '<' -> (
      match at st (st.pos + 1) with
      | '<' -> st.pos <- st.pos + 2; SHL
      | _ -> pair st '=' LT LE)
  | '>' -> (
      match at st (st.pos + 1) with
      | '>' when at st (st.pos + 2) = '>' -> st.pos <- st.pos + 3; USHR
      | '>' -> st.pos <- st.pos + 2; SHR
      | _ -> pair st '=' GT GE)
  | '+' -> (
      match at st (st.pos + 1) with
      | '+' -> st.pos <- st.pos + 2; PLUSPLUS
      | _ -> pair st '=' PLUS PLUS_ASSIGN)
  | '-' -> (
      match at st (st.pos + 1) with
      | '-' -> st.pos <- st.pos + 2; MINUSMINUS
      | _ -> pair st '=' MINUS MINUS_ASSIGN)
  | '*' -> pair st '=' STAR STAR_ASSIGN
  | '/' -> pair st '=' SLASH SLASH_ASSIGN
  | '%' -> single st PERCENT
  | '&' -> pair st '&' AMP ANDAND
  | '|' -> pair st '|' PIPE OROR
  | '^' -> single st CARET
  | c -> error st "unexpected character %C" c

let lex_one st : Token.t =
  if st.pos >= st.len then Token.EOF
  else
    match String.unsafe_get st.src st.pos with
    | '0' .. '9' -> lex_number st
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st
    | '\'' -> lex_char st
    | '"' -> lex_string st
    | c -> punct st c

let rec lex_all st acc =
  skip_trivia st;
  let start_pos = cur_pos st in
  let tok = lex_one st in
  let loc = { Loc.source = st.name; start_pos; end_pos = cur_pos st } in
  let acc = { tok; loc } :: acc in
  match tok with Token.EOF -> List.rev acc | _ -> lex_all st acc

(** Tokenize a full source string. *)
let tokenize ?(name = "<inline>") src : located list =
  lex_all { src; len = String.length src; name; pos = 0; line = 1; bol = 0 } []
