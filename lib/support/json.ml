let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* deep enough for every document the repo writes; a hostile one fails
   here in time linear in its length instead of exhausting the stack *)
let max_depth = 512

exception Fail of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let k = String.length lit in
    if !pos + k <= n && String.sub s !pos k = lit then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "bad \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  (* [pos] is just past the [u] of a [\u] escape; a lone surrogate fails
     at the escape that should have completed the pair *)
  let code_point () =
    let unpaired at =
      pos := at;
      fail "unpaired surrogate"
    in
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then unpaired (!pos - 6)
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      let at = !pos in
      if not (at + 1 < n && s.[at] = '\\' && s.[at + 1] = 'u') then
        unpaired at;
      pos := at + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then unpaired at;
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else hi
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some 'u' ->
              advance ();
              Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          | Some c ->
              Buffer.add_char b
                (match c with
                | '"' -> '"'
                | '\\' -> '\\'
                | '/' -> '/'
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | 'b' -> '\b'
                | 'f' -> '\012'
                | c -> fail (Printf.sprintf "bad escape \\%c" c));
              advance ());
          go ()
      | Some c when Char.code c < 0x20 ->
          fail "raw control character in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "bad number"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some ('1' .. '9') -> digits ()
    | _ -> fail "bad number");
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  (* the items of an array or the members of an object, after its opening
     bracket, up to and including [close] *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go acc
        | Some c when c = close ->
            advance ();
            List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      go []
  in
  let rec value depth =
    skip_ws ();
    let nest () =
      if depth >= max_depth then
        fail (Printf.sprintf "nesting deeper than %d" max_depth);
      advance ()
    in
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        nest ();
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, value (depth + 1))))
    | Some '[' ->
        nest ();
        List (sequence ']' (fun () -> value (depth + 1)))
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
