(** Lightweight static validator for generated OpenCL C.

    There is no OpenCL driver in this environment (DESIGN.md §2), so the
    generated kernel text cannot be compiled by a vendor toolchain.  This
    module implements checks a front end would reject immediately, giving
    the codegen tests real teeth:

    - lexical well-formedness: terminated block comments and strings, no
      stray characters;
    - balanced ()/{}/[];
    - float literals carry a mantissa/exponent ([0f] is invalid C);
    - declare-before-use for identifiers (parameters, locals, loop
      variables), with the OpenCL builtin vocabulary preloaded;
    - exactly one [__kernel] entry point.

    The checker is deliberately permissive about what it does not
    understand — it reports problems, never false certainty. *)

type issue = { is_line : int; is_msg : string }

let pp_issue ppf i = Fmt.pf ppf "line %d: %s" i.is_line i.is_msg

type result = { issues : issue list }

let ok r = r.issues = []

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)
(* ------------------------------------------------------------------ *)

type tok =
  | Ident of string
  | Number of string
  | Punct of char
  | Str

type ltok = { t : tok; line : int }

let tokenize (src : string) : ltok list * issue list =
  let issues = ref [] in
  let toks = ref [] in
  let line = ref 1 in
  let n = String.length src in
  let i = ref 0 in
  let issue fmt =
    Printf.ksprintf
      (fun m -> issues := { is_line = !line; is_msg = m } :: !issues)
      fmt
  in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let closed = ref false in
      i := !i + 2;
      while (not !closed) && !i + 1 < n do
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then begin
        issue "unterminated block comment";
        i := n
      end
    end
    else if c = '"' then begin
      let closed = ref false in
      incr i;
      while (not !closed) && !i < n do
        if src.[!i] = '\\' then i := !i + 2
        else if src.[!i] = '"' then begin
          closed := true;
          incr i
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done;
      if not !closed then issue "unterminated string literal";
      toks := { t = Str; line = !line } :: !toks
    end
    else if is_id c then begin
      let start = !i in
      while !i < n && (is_id src.[!i] || is_digit src.[!i]) do
        incr i
      done;
      toks :=
        { t = Ident (String.sub src start (!i - start)); line = !line }
        :: !toks
    end
    else if is_digit c then begin
      let start = !i in
      while
        !i < n
        && (is_digit src.[!i]
           || src.[!i] = '.' || src.[!i] = 'x' || src.[!i] = 'X'
           || src.[!i] = 'e' || src.[!i] = 'E'
           || src.[!i] = 'f' || src.[!i] = 'F'
           || src.[!i] = 'u' || src.[!i] = 'U'
           || src.[!i] = 'L' || src.[!i] = 'l'
           || (src.[!i] >= 'a' && src.[!i] <= 'f' && !i > start + 1
              && (src.[start + 1] = 'x' || src.[start + 1] = 'X'))
           || ((src.[!i] = '+' || src.[!i] = '-')
              && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
      do
        incr i
      done;
      toks :=
        { t = Number (String.sub src start (!i - start)); line = !line }
        :: !toks
    end
    else begin
      (match c with
      | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '.' | '*' | '&'
      | '+' | '-' | '/' | '%' | '<' | '>' | '=' | '!' | '|' | '^' | '~'
      | '?' | ':' | '#' ->
          toks := { t = Punct c; line = !line } :: !toks
      | c -> issue "stray character %C" c);
      incr i
    end
  done;
  (List.rev !toks, List.rev !issues)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let check_balance (toks : ltok list) : issue list =
  let issues = ref [] in
  let stack = ref [] in
  let mate = function ')' -> '(' | ']' -> '[' | '}' -> '{' | _ -> ' ' in
  List.iter
    (fun { t; line } ->
      match t with
      | Punct (('(' | '[' | '{') as c) -> stack := (c, line) :: !stack
      | Punct ((')' | ']' | '}') as c) -> (
          match !stack with
          | (o, _) :: rest when o = mate c -> stack := rest
          | _ ->
              issues :=
                { is_line = line; is_msg = Printf.sprintf "unmatched '%c'" c }
                :: !issues)
      | _ -> ())
    toks;
  List.iter
    (fun (o, line) ->
      issues :=
        { is_line = line; is_msg = Printf.sprintf "unclosed '%c'" o }
        :: !issues)
    !stack;
  List.rev !issues

let check_float_literals (toks : ltok list) : issue list =
  List.filter_map
    (fun { t; line } ->
      match t with
      | Number s
        when String.length s > 1
             && (s.[String.length s - 1] = 'f' || s.[String.length s - 1] = 'F')
             && not
                  (String.length s > 2 && (s.[1] = 'x' || s.[1] = 'X')) ->
          if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
            None
          else
            Some
              {
                is_line = line;
                is_msg = Printf.sprintf "float literal %s needs '.' or exponent" s;
              }
      | _ -> None)
    toks

(* The OpenCL C vocabulary the generated code may rely on without
   declaring.  A type word also declares the identifier after it. *)
type word = Type | Builtin

let type_words =
  [
    "void"; "char"; "uchar"; "short"; "ushort"; "int"; "uint"; "long";
    "ulong"; "float"; "double"; "bool"; "float2"; "float4"; "float8";
    "float16"; "double2"; "double4"; "int2"; "int4"; "image2d_t";
    "sampler_t"; "struct"; "size_t"; "ushort2"; "ushort4";
  ]

let builtin_words =
  [
    (* types without a declarator role *)
    "int8"; "int16"; "char2"; "char4"; "char8"; "long2"; "long4";
    (* qualifiers / keywords *)
    "__kernel"; "__global"; "__local"; "__constant"; "__private";
    "__read_only"; "__write_only"; "restrict"; "const"; "typedef";
    "return"; "if"; "else"; "for"; "while"; "do"; "break";
    "continue"; "sizeof"; "static"; "inline"; "define"; "pragma";
    "OPENCL"; "EXTENSION"; "cl_khr_fp64"; "enable";
    (* work-item functions *)
    "get_global_id"; "get_global_size"; "get_local_id"; "get_local_size";
    "get_group_id"; "get_num_groups"; "barrier"; "CLK_LOCAL_MEM_FENCE";
    "CLK_GLOBAL_MEM_FENCE";
    (* math *)
    "sqrt"; "native_sqrt"; "rsqrt"; "native_rsqrt"; "sin"; "native_sin";
    "cos"; "native_cos"; "tan"; "native_tan"; "exp"; "native_exp"; "log";
    "native_log"; "pow"; "atan2"; "fabs"; "abs"; "fmin"; "fmax"; "min";
    "max"; "floor"; "ceil";
    (* images *)
    "read_imagef"; "read_imagei"; "write_imagef";
    "CLK_NORMALIZED_COORDS_FALSE"; "CLK_ADDRESS_CLAMP"; "CLK_FILTER_NEAREST";
    (* vector loads *)
    "vload2"; "vload4"; "vload8"; "vstore2"; "vstore4";
  ]

(* built once: every check reads it, none writes it *)
let vocabulary : (string, word) Hashtbl.t =
  let t = Hashtbl.create 128 in
  List.iter (fun w -> Hashtbl.replace t w Builtin) builtin_words;
  List.iter (fun w -> Hashtbl.replace t w Type) type_words;
  t

(** Declare-before-use over a simplified model: any identifier that appears
    immediately after a type-ish word (or in a parameter list) counts as a
    declaration; struct field names after '.' and the [args.] fields are
    exempt. *)
let check_declared_before_use (toks : ltok list) : issue list =
  let declared : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let issues = ref [] in
  let rec scan prev = function
    | [] -> ()
    | { t = Ident id; line } :: rest ->
        (match prev with
        | Some (Ident tw) when Hashtbl.find_opt vocabulary tw = Some Type ->
            Hashtbl.replace declared id ()
        | Some (Ident ("define" | "restrict")) ->
            (* macro definitions and the final name of a pointer parameter *)
            Hashtbl.replace declared id ()
        | Some (Punct '*') ->
            (* pointer declarators ([float* q = ...]); multiplication also
               lands here, a deliberate leniency *)
            Hashtbl.replace declared id ()
        | Some (Ident tw)
          when String.length tw > 6
               && String.sub tw 0 6 = "KArgs_" ->
            (* struct type name usage: declares the variable after it *)
            Hashtbl.replace declared id ()
        | Some (Punct '.') -> () (* field access: not a variable use *)
        | Some (Punct '#') -> Hashtbl.replace declared id ()
        | _ ->
            if String.length id > 6 && String.sub id 0 6 = "KArgs_" then
              Hashtbl.replace declared id ()
            else if
              not (Hashtbl.mem vocabulary id || Hashtbl.mem declared id)
            then
              issues :=
                {
                  is_line = line;
                  is_msg = Printf.sprintf "identifier '%s' used before declaration" id;
                }
                :: !issues);
        scan (Some (Ident id)) rest
    | { t; _ } :: rest -> scan (Some t) rest
  in
  scan None toks;
  List.rev !issues

let check_single_kernel (toks : ltok list) : issue list =
  let count =
    List.length
      (List.filter (fun { t; _ } -> t = Ident "__kernel") toks)
  in
  if count = 1 then []
  else
    [
      {
        is_line = 1;
        is_msg = Printf.sprintf "expected exactly one __kernel, found %d" count;
      };
    ]

(** Run all checks over a kernel source. *)
let check (src : string) : result =
  let toks, lex_issues = tokenize src in
  {
    issues =
      lex_issues
      @ check_balance toks
      @ check_float_literals toks
      @ check_single_kernel toks
      @ check_declared_before_use toks;
  }

let report (r : result) : string =
  if ok r then "ok"
  else
    String.concat "\n"
      (List.map (fun i -> Fmt.str "%a" pp_issue i) r.issues)
