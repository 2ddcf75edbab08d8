(** Recursive-descent parser for the Lime subset.

    Grammar notes:

    - Value-array dimensions use the paper's double-bracket syntax: the
      double brackets wrap the whole dimension list, so [float[[][4]]] is a
      2-D value array (unbounded outer, bounded-4 inner) and tokenizes as
      [DLBRACKET RBRACKET LBRACKET 4 DRBRACKET].  The lexer fuses adjacent
      brackets greedily; the stream below can virtually re-split a fused
      bracket when the context needs a single one (e.g. in [a\[b\[i\]\]]).

    - The reduce operator [!] is binary-position ([Math.max ! arr]) or takes
      a leading arithmetic operator ([+ ! arr]).  Prefix [!] remains logical
      not.

    - [=>] (connect) has the lowest precedence; [@] (map) and [!] (reduce)
      bind tighter than multiplication. *)

open Lime_support
open Ast

(* ------------------------------------------------------------------ *)
(* Token stream with virtual bracket splitting and backtracking        *)
(* ------------------------------------------------------------------ *)

(* The stream walks the lexer's token list itself, and a mark is the list
   cell to resume from.  The tokens are never copied into an array: an
   array too large for the minor heap, seeded with a young token as a
   list-to-array copy seeds it, makes OCaml 5 empty the minor heap first,
   once per parse. *)
type stream = {
  mutable toks : Lexer.located list;  (** the tokens not yet consumed *)
  mutable virtuals : Token.t list;
      (** tokens synthesized by splitting a fused bracket; consumed first *)
}

type mark = Lexer.located list * Token.t list

let of_tokens toks = { toks; virtuals = [] }

let save st : mark = (st.toks, st.virtuals)
let restore st ((t, v) : mark) =
  st.toks <- t;
  st.virtuals <- v

let cur_loc st = match st.toks with l :: _ -> l.loc | [] -> Loc.dummy

let peek st =
  match st.virtuals with
  | t :: _ -> t
  | [] -> ( match st.toks with l :: _ -> l.tok | [] -> Token.EOF)

let next st =
  match st.virtuals with
  | t :: rest ->
      st.virtuals <- rest;
      t
  | [] -> (
      match st.toks with
      | l :: rest ->
          st.toks <- rest;
          l.tok
      | [] -> Token.EOF)

let err st fmt =
  Diag.error ~phase:Diag.Parser ~loc:(cur_loc st) fmt

(* [accept], [expect] and the [peek st == Token.X] tests compare tokens
   physically: every caller passes a constant constructor, an immediate
   value, so [==] is structural equality without a polymorphic compare. *)
let accept st tok = if peek st == tok then (ignore (next st); true) else false

let expect st tok =
  let got = peek st in
  (* Allow a fused double bracket to satisfy a single-bracket expectation. *)
  match (tok, got, st.virtuals) with
  | Token.LBRACKET, Token.DLBRACKET, [] ->
      ignore (next st);
      st.virtuals <- [ Token.LBRACKET ]
  | Token.RBRACKET, Token.DRBRACKET, [] ->
      ignore (next st);
      st.virtuals <- [ Token.RBRACKET ]
  | _ ->
      if got == tok then ignore (next st)
      else
        err st "expected '%s' but found '%s'" (Token.to_string tok)
          (Token.to_string got)

let expect_ident st =
  match peek st with
  | Token.IDENT s ->
      ignore (next st);
      s
  | t -> err st "expected identifier but found '%s'" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let prim_of_token = function
  | Token.KW_INT -> Some PInt
  | Token.KW_FLOAT -> Some PFloat
  | Token.KW_DOUBLE -> Some PDouble
  | Token.KW_BYTE -> Some PByte
  | Token.KW_LONG -> Some PLong
  | Token.KW_BOOLEAN -> Some PBoolean
  | Token.KW_CHAR -> Some PChar
  | _ -> None

(** Parse the dimension suffix of a type, returning dims outermost-first.

    Mutable dims: a sequence of [\[\]].  Value dims: [\[\[ d (\]\[ d)* \]\]]
    where each [d] is an optional integer bound. *)
let rec parse_dims st : dim list =
  match peek st with
  | Token.LBRACKET ->
      ignore (next st);
      expect st Token.RBRACKET;
      DimDyn :: parse_dims st
  | Token.DLBRACKET ->
      ignore (next st);
      let rec dims_inside acc =
        let d =
          match peek st with
          | Token.INT n ->
              ignore (next st);
              DimValBounded (Int64.to_int n)
          | _ -> DimValUnbounded
        in
        let acc = d :: acc in
        match peek st with
        | Token.DRBRACKET ->
            ignore (next st);
            List.rev acc
        | Token.RBRACKET ->
            ignore (next st);
            expect st Token.LBRACKET;
            dims_inside acc
        | t -> err st "malformed value-array dimensions near '%s'" (Token.to_string t)
      in
      let vdims = dims_inside [] in
      vdims @ parse_dims st
  | _ -> []

(** Wrap [base] in array types; [dims] is outermost-first, so the head
    dimension becomes the outermost [TArray]. *)
let apply_dims base dims =
  let rec go = function
    | [] -> base
    | d :: rest -> TArray (go rest, d)
  in
  go dims

let parse_base_type st : ty =
  match prim_of_token (peek st) with
  | Some p ->
      ignore (next st);
      TPrim p
  | None -> (
      match peek st with
      | Token.KW_VOID ->
          ignore (next st);
          TVoid
      | Token.IDENT s ->
          ignore (next st);
          TNamed s
      | t -> err st "expected a type but found '%s'" (Token.to_string t))

let parse_type st : ty =
  let base = parse_base_type st in
  let dims = parse_dims st in
  apply_dims base dims

(** Backtracking probe: is a type followed by an identifier next?  Used to
    distinguish local variable declarations from expression statements. *)
let looks_like_vardecl st =
  let m = save st in
  let ok =
    match
      Diag.protect (fun () ->
          let _ty = parse_type st in
          match peek st with Token.IDENT _ -> true | _ -> false)
    with
    | Ok b -> b
    | Error _ -> false
  in
  restore st m;
  ok

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_of_token = function
  | Token.PLUS -> Some Add
  | Token.MINUS -> Some Sub
  | Token.STAR -> Some Mul
  | Token.SLASH -> Some Div
  | Token.PERCENT -> Some Mod
  | Token.LT -> Some Lt
  | Token.LE -> Some Le
  | Token.GT -> Some Gt
  | Token.GE -> Some Ge
  | Token.EQ -> Some Eq
  | Token.NE -> Some Ne
  | Token.ANDAND -> Some And
  | Token.OROR -> Some Or
  | Token.AMP -> Some BitAnd
  | Token.PIPE -> Some BitOr
  | Token.CARET -> Some BitXor
  | Token.SHL -> Some Shl
  | Token.SHR -> Some Shr
  | Token.USHR -> Some Ushr
  | _ -> None

(* Precedence levels, higher binds tighter. *)
let prec_of = function
  | Or -> 10
  | And -> 20
  | BitOr -> 30
  | BitXor -> 40
  | BitAnd -> 50
  | Eq | Ne -> 60
  | Lt | Le | Gt | Ge -> 70
  | Shl | Shr | Ushr -> 80
  | Add | Sub -> 90
  | Mul | Div | Mod -> 100

let _mapred_prec = 110 (* documentation: @ and ! bind tighter than * *)

let rec parse_expr st : expr = parse_connect st

and parse_connect st =
  let lhs = parse_ternary st in
  let rec go lhs =
    if accept st Token.CONNECT then
      let rhs = parse_ternary st in
      go (mk ~loc:(Loc.merge lhs.eloc rhs.eloc) (EConnect (lhs, rhs)))
    else lhs
  in
  go lhs

and parse_ternary st =
  let c = parse_binary st 0 in
  if accept st Token.QUESTION then begin
    let a = parse_ternary st in
    expect st Token.COLON;
    let b = parse_ternary st in
    mk ~loc:(Loc.merge c.eloc b.eloc) (ECond (c, a, b))
  end
  else c

and parse_binary st min_prec =
  let lhs = parse_mapred st in
  let rec go lhs =
    match binop_of_token (peek st) with
    | Some op when prec_of op >= min_prec ->
        ignore (next st);
        let rhs = parse_binary st (prec_of op + 1) in
        go (mk ~loc:(Loc.merge lhs.eloc rhs.eloc) (EBinop (op, lhs, rhs)))
    | _ -> lhs
  in
  go lhs

(** Map [f @ arr] and binary-position reduce [Math.max ! arr]. *)
and parse_mapred st =
  let lhs = parse_unary st in
  let rec go lhs =
    match peek st with
    | Token.AT ->
        ignore (next st);
        let rhs = parse_unary st in
        go (mk ~loc:(Loc.merge lhs.eloc rhs.eloc) (EMap (lhs, rhs)))
    | Token.BANG ->
        (* binary-position '!': the left side must be a method reference *)
        let reducer =
          match lhs.e with
          | EField ({ e = EVar cls; _ }, m) -> RMethod (cls, m)
          | _ ->
              Diag.error ~phase:Diag.Parser ~loc:lhs.eloc
                "the left operand of '!' (reduce) must be a method \
                 reference such as Math.max"
        in
        ignore (next st);
        let rhs = parse_unary st in
        go (mk ~loc:(Loc.merge lhs.eloc rhs.eloc) (EReduce (reducer, rhs)))
    | _ -> lhs
  in
  go lhs

and parse_unary st =
  match peek st with
  (* operator-reduce: '+ ! arr', '* ! arr', 'max'-style handled above *)
  | (Token.PLUS | Token.STAR | Token.AMP | Token.PIPE | Token.CARET) as t
    when
      (let m = save st in
       ignore (next st);
       let is_reduce = peek st == Token.BANG in
       restore st m;
       is_reduce) ->
      let op =
        match t with
        | Token.PLUS -> Add
        | Token.STAR -> Mul
        | Token.AMP -> BitAnd
        | Token.PIPE -> BitOr
        | Token.CARET -> BitXor
        | _ -> assert false
      in
      let l0 = cur_loc st in
      ignore (next st);
      expect st Token.BANG;
      let arr = parse_unary st in
      mk ~loc:(Loc.merge l0 arr.eloc) (EReduce (RBinop op, arr))
  | Token.MINUS ->
      let l0 = cur_loc st in
      ignore (next st);
      let e = parse_unary st in
      mk ~loc:(Loc.merge l0 e.eloc) (EUnop (Neg, e))
  | Token.BANG ->
      let l0 = cur_loc st in
      ignore (next st);
      let e = parse_unary st in
      mk ~loc:(Loc.merge l0 e.eloc) (EUnop (Not, e))
  | Token.TILDE ->
      let l0 = cur_loc st in
      ignore (next st);
      let e = parse_unary st in
      mk ~loc:(Loc.merge l0 e.eloc) (EUnop (BitNot, e))
  | Token.LPAREN
    when
      (let m = save st in
       ignore (next st);
       let is_cast =
         match prim_of_token (peek st) with
         | Some _ ->
             ignore (next st);
             peek st == Token.RPAREN
         | None -> false
       in
       restore st m;
       is_cast) ->
      let l0 = cur_loc st in
      ignore (next st);
      let ty = parse_base_type st in
      expect st Token.RPAREN;
      let e = parse_unary st in
      mk ~loc:(Loc.merge l0 e.eloc) (ECast (ty, e))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = parse_primary st in
  let rec go e =
    match peek st with
    | Token.DOT ->
        ignore (next st);
        let name = expect_ident st in
        if peek st == Token.LPAREN then begin
          let args = parse_args st in
          go (mk ~loc:(Loc.merge e.eloc (cur_loc st)) (ECall (e, name, args)))
        end
        else go (mk ~loc:(Loc.merge e.eloc (cur_loc st)) (EField (e, name)))
    | Token.LBRACKET | Token.DLBRACKET ->
        expect st Token.LBRACKET;
        let i = parse_expr st in
        expect st Token.RBRACKET;
        go (mk ~loc:(Loc.merge e.eloc i.eloc) (EIndex (e, i)))
    | _ -> e
  in
  go e

and parse_args st =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else begin
    let rec go acc =
      let e = parse_expr st in
      if accept st Token.COMMA then go (e :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_primary st =
  let loc = cur_loc st in
  match peek st with
  | Token.INT i ->
      ignore (next st);
      mk ~loc (ELit (LInt i))
  | Token.FLOAT f ->
      ignore (next st);
      mk ~loc (ELit (LFloat f))
  | Token.DOUBLE f ->
      ignore (next st);
      mk ~loc (ELit (LDouble f))
  | Token.CHARLIT c ->
      ignore (next st);
      mk ~loc (ELit (LChar c))
  | Token.STRINGLIT s ->
      ignore (next st);
      mk ~loc (ELit (LString s))
  | Token.KW_TRUE ->
      ignore (next st);
      mk ~loc (ELit (LBool true))
  | Token.KW_FALSE ->
      ignore (next st);
      mk ~loc (ELit (LBool false))
  | Token.KW_NULL ->
      ignore (next st);
      mk ~loc (ELit LNull)
  | Token.LPAREN ->
      ignore (next st);
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.LBRACE ->
      (* array literal *)
      ignore (next st);
      let rec go acc =
        if peek st == Token.RBRACE then begin
          ignore (next st);
          List.rev acc
        end
        else begin
          let e = parse_expr st in
          if accept st Token.COMMA then go (e :: acc)
          else begin
            expect st Token.RBRACE;
            List.rev (e :: acc)
          end
        end
      in
      mk ~loc (EArrayLit (go []))
  | Token.KW_NEW ->
      ignore (next st);
      let base = parse_base_type st in
      (match (base, peek st) with
      | TNamed cls, Token.LPAREN ->
          let args = parse_args st in
          mk ~loc (ENewObject (cls, args))
      | _, (Token.LBRACKET | Token.DLBRACKET) ->
          (* new T[e1][e2]... (mutable) or new T[[e1]]... (value, with
             runtime sizes); collect leading sizes, keep trailing empty
             dims as part of the type *)
          let sizes = ref [] in
          let dims = ref [] in
          let rec lead () =
            match peek st with
            | Token.LBRACKET ->
                ignore (next st);
                if peek st == Token.RBRACKET then begin
                  ignore (next st);
                  dims := !dims @ [ DimDyn ];
                  trail_dyn ()
                end
                else begin
                  let e = parse_expr st in
                  expect st Token.RBRACKET;
                  sizes := !sizes @ [ e ];
                  dims := !dims @ [ DimDyn ];
                  lead ()
                end
            | Token.DLBRACKET ->
                ignore (next st);
                let rec vdims () =
                  (match peek st with
                  | Token.DRBRACKET | Token.RBRACKET ->
                      dims := !dims @ [ DimValUnbounded ]
                  | _ ->
                      let e = parse_expr st in
                      (match e.e with
                      | ELit (LInt n) ->
                          dims := !dims @ [ DimValBounded (Int64.to_int n) ]
                      | _ -> dims := !dims @ [ DimValUnbounded ]);
                      sizes := !sizes @ [ e ]);
                  match peek st with
                  | Token.DRBRACKET -> ignore (next st)
                  | Token.RBRACKET ->
                      ignore (next st);
                      expect st Token.LBRACKET;
                      vdims ()
                  | t ->
                      err st "malformed value-array dimensions near '%s'"
                        (Token.to_string t)
                in
                vdims ();
                lead ()
            | _ -> ()
          and trail_dyn () =
            match peek st with
            | Token.LBRACKET ->
                ignore (next st);
                expect st Token.RBRACKET;
                dims := !dims @ [ DimDyn ];
                trail_dyn ()
            | _ -> ()
          in
          lead ();
          let ty = apply_dims base !dims in
          mk ~loc (ENewArray (ty, !sizes))
      | TNamed cls, _ ->
          err st "expected '(' or '[' after 'new %s'" cls
      | _ -> err st "expected array dimensions after 'new <primitive>'")
  | Token.KW_TASK ->
      ignore (next st);
      let cls = expect_ident st in
      let ctor_args =
        if peek st == Token.LPAREN then Some (parse_args st) else None
      in
      expect st Token.DOT;
      let meth = expect_ident st in
      mk ~loc (ETask { tr_class = cls; tr_ctor_args = ctor_args; tr_method = meth })
  | Token.IDENT s ->
      ignore (next st);
      if peek st == Token.LPAREN then
        (* unqualified call — to a method of the enclosing class; the type
           checker rewrites this into a qualified call *)
        let args = parse_args st in
        mk ~loc (ECall (mk ~loc (EVar "<this-class>"), s, args))
      else mk ~loc (EVar s)
  | t -> err st "unexpected token '%s' in expression" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Desugar [e++] / [e--] / compound assignment into plain assignment. *)
let incr_decr loc op e =
  let one = mk ~loc (ELit (LInt 1L)) in
  mks ~loc (SAssign (e, mk ~loc (EBinop (op, e, one))))

let rec parse_stmt st : stmt =
  let loc = cur_loc st in
  match peek st with
  | Token.LBRACE ->
      ignore (next st);
      let rec go acc =
        if accept st Token.RBRACE then List.rev acc
        else go (parse_stmt st :: acc)
      in
      mks ~loc (SBlock (go []))
  | Token.KW_IF ->
      ignore (next st);
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let a = parse_stmt st in
      let b = if accept st Token.KW_ELSE then Some (parse_stmt st) else None in
      mks ~loc (SIf (c, a, b))
  | Token.KW_WHILE ->
      ignore (next st);
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let b = parse_stmt st in
      mks ~loc (SWhile (c, b))
  | Token.KW_FOR ->
      ignore (next st);
      expect st Token.LPAREN;
      let init =
        if peek st == Token.SEMI then None else Some (parse_simple_stmt st)
      in
      expect st Token.SEMI;
      let cond = if peek st == Token.SEMI then None else Some (parse_expr st) in
      expect st Token.SEMI;
      let step =
        if peek st == Token.RPAREN then None else Some (parse_simple_stmt st)
      in
      expect st Token.RPAREN;
      let body = parse_stmt st in
      mks ~loc (SFor (init, cond, step, body))
  | Token.KW_RETURN ->
      ignore (next st);
      if accept st Token.SEMI then mks ~loc (SReturn None)
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        mks ~loc (SReturn (Some e))
      end
  | Token.KW_BREAK ->
      ignore (next st);
      expect st Token.SEMI;
      mks ~loc SBreak
  | Token.KW_CONTINUE ->
      ignore (next st);
      expect st Token.SEMI;
      mks ~loc SContinue
  | _ ->
      let s = parse_simple_stmt st in
      expect st Token.SEMI;
      s

(** A "simple" statement: declaration, assignment, increment or expression —
    the forms allowed in [for] headers (no trailing semicolon). *)
and parse_simple_stmt st : stmt =
  let loc = cur_loc st in
  let is_decl =
    match peek st with
    | Token.IDENT _ -> looks_like_vardecl st
    | t -> ( match prim_of_token t with Some _ -> true | None -> false)
  in
  if is_decl then begin
    let ty = parse_type st in
    let name = expect_ident st in
    let init = if accept st Token.ASSIGN then Some (parse_expr st) else None in
    mks ~loc (SVarDecl (ty, name, init))
  end
  else begin
    let e = parse_expr st in
    match peek st with
    | Token.ASSIGN ->
        ignore (next st);
        let r = parse_expr st in
        mks ~loc (SAssign (e, r))
    | Token.PLUS_ASSIGN ->
        ignore (next st);
        let r = parse_expr st in
        mks ~loc (SAssign (e, mk ~loc (EBinop (Add, e, r))))
    | Token.MINUS_ASSIGN ->
        ignore (next st);
        let r = parse_expr st in
        mks ~loc (SAssign (e, mk ~loc (EBinop (Sub, e, r))))
    | Token.STAR_ASSIGN ->
        ignore (next st);
        let r = parse_expr st in
        mks ~loc (SAssign (e, mk ~loc (EBinop (Mul, e, r))))
    | Token.SLASH_ASSIGN ->
        ignore (next st);
        let r = parse_expr st in
        mks ~loc (SAssign (e, mk ~loc (EBinop (Div, e, r))))
    | Token.PLUSPLUS ->
        ignore (next st);
        incr_decr loc Add e
    | Token.MINUSMINUS ->
        ignore (next st);
        incr_decr loc Sub e
    | _ -> mks ~loc (SExpr e)
  end

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_modifiers st : modifier list =
  let rec go acc =
    match peek st with
    | Token.KW_STATIC -> ignore (next st); go (MStatic :: acc)
    | Token.KW_LOCAL -> ignore (next st); go (MLocal :: acc)
    | Token.KW_FINAL -> ignore (next st); go (MFinal :: acc)
    | Token.KW_PUBLIC -> ignore (next st); go (MPublic :: acc)
    | Token.KW_PRIVATE -> ignore (next st); go (MPrivate :: acc)
    | _ -> List.rev acc
  in
  go []

let parse_params st : param list =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else begin
    let rec go acc =
      let loc = cur_loc st in
      let ty = parse_type st in
      let name = expect_ident st in
      let p = { p_ty = ty; p_name = name; p_loc = loc } in
      if accept st Token.COMMA then go (p :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev (p :: acc)
      end
    in
    go []
  end

let parse_method_tail st ~mods ~ret ~name ~loc =
  let params = parse_params st in
  expect st Token.LBRACE;
  let rec go acc =
    if accept st Token.RBRACE then List.rev acc else go (parse_stmt st :: acc)
  in
  let body = go [] in
  {
    m_mods = mods;
    m_ret = ret;
    m_name = name;
    m_params = params;
    m_body = body;
    m_loc = loc;
  }

let parse_member st : [ `Field of field_decl | `Method of method_decl ] =
  let loc = cur_loc st in
  let mods = parse_modifiers st in
  let ty = parse_type st in
  match (ty, peek st) with
  | TNamed _, Token.LPAREN ->
      (* Constructor: a bare class name directly followed by a parameter
         list; represented as a method named "<init>" returning void. *)
      `Method (parse_method_tail st ~mods ~ret:TVoid ~name:"<init>" ~loc)
  | _ ->
      let name = expect_ident st in
      if peek st == Token.LPAREN then
        `Method (parse_method_tail st ~mods ~ret:ty ~name ~loc)
      else begin
        let init =
          if accept st Token.ASSIGN then Some (parse_expr st) else None
        in
        expect st Token.SEMI;
        `Field
          { f_mods = mods; f_ty = ty; f_name = name; f_init = init; f_loc = loc }
      end

let parse_class st : class_decl =
  let loc = cur_loc st in
  let value = accept st Token.KW_VALUE in
  expect st Token.KW_CLASS;
  let name = expect_ident st in
  expect st Token.LBRACE;
  let fields = ref [] and methods = ref [] in
  let rec go () =
    if accept st Token.RBRACE then ()
    else begin
      (match parse_member st with
      | `Field f -> fields := f :: !fields
      | `Method m -> methods := m :: !methods);
      go ()
    end
  in
  go ();
  {
    c_value = value;
    c_name = name;
    c_fields = List.rev !fields;
    c_methods = List.rev !methods;
    c_loc = loc;
  }

let parse_program st : program =
  let rec go acc =
    if peek st == Token.EOF then List.rev acc else go (parse_class st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let program_of_tokens toks : program = parse_program (of_tokens toks)

let program_of_string ?(name = "<inline>") src : program =
  program_of_tokens (Lexer.tokenize ~name src)

let expr_of_string ?(name = "<inline>") src : expr =
  let toks = Lexer.tokenize ~name src in
  let st = of_tokens toks in
  let e = parse_expr st in
  (match peek st with
  | Token.EOF -> ()
  | t -> err st "trailing tokens after expression: '%s'" (Token.to_string t));
  e

let stmt_of_string ?(name = "<inline>") src : stmt =
  let toks = Lexer.tokenize ~name src in
  let st = of_tokens toks in
  parse_stmt st
