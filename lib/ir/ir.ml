(** Mid-level intermediate representation.

    Every Lime method body is lowered to this structured IR.  It serves three
    consumers:

    - the reference interpreter ({!Interp}) — the "bytecode" execution of the
      paper's baseline, also used for differential testing;
    - the kernel pipeline (lib/core) — kernel extraction, the memory
      optimizer's pattern matching (Fig 5) and OpenCL code generation;
    - the GPU simulator (lib/gpusim) — functional execution plus the
      device-timing model.

    Design notes.  Map ([@]) lowers to {!SParFor} with the map function
    inlined inside an {!SInlineBlock} (a lexically scoped early-return
    region).  Reduce ([!]) lowers to {!SReduce}.  Memory-space placement is
    *not* part of the IR: the optimizer produces a side table of
    {!placement}s keyed by array name, so the same IR executes identically
    under every placement — which is exactly the property the differential
    tests check. *)

type scalar = SInt | SFloat | SDouble | SByte | SLong | SBool | SChar

(** Dimension of an array type: compile-time bounded or dynamic. *)
type dimk = DFixed of int | DDyn

type aty = {
  elem : scalar;
  dims : dimk list;  (** outermost first; never empty *)
  value : bool;  (** deeply immutable (Lime value array) *)
}

type ty =
  | TScalar of scalar
  | TArr of aty
  | TObj of string
  | TTaskTy of ty * ty
  | TUnit

(** OpenCL memory spaces (paper §2, §4.2.1) plus the host heap. *)
type mem_space =
  | MGlobal
  | MLocal
  | MPrivate
  | MConstant
  | MImage
  | MHost

let mem_space_name = function
  | MGlobal -> "global"
  | MLocal -> "local"
  | MPrivate -> "private"
  | MConstant -> "constant"
  | MImage -> "image"
  | MHost -> "host"

(** Placement decision for one array, produced by the optimizer. *)
type placement = {
  space : mem_space;
  padded : bool;  (** bank-conflict padding applied (local memory) *)
  vector_width : int;  (** 1 = scalar accesses; 2/4/8/16 = vectorized *)
}

let default_placement = { space = MGlobal; padded = false; vector_width = 1 }

type const =
  | CInt of int
  | CLong of int64
  | CFloat of float  (** single precision; rounded at evaluation *)
  | CDouble of float
  | CBool of bool

type expr =
  | Const of const
  | Var of string
  | Bin of Lime_frontend.Ast.binop * scalar * expr * expr
      (** operand type after promotion; comparisons yield [SBool] *)
  | Un of Lime_frontend.Ast.unop * scalar * expr
  | Cast of scalar * scalar * expr  (** [(to, from, e)] *)
  | Load of expr * expr list
      (** base, indices; fewer indices than dimensions yields a view *)
  | Len of expr * int  (** array length of dimension [i] *)
  | Intrinsic of Lime_typecheck.Tast.builtin * scalar * expr list
  | CallF of string * expr list  (** static call, name ["Class.method"] *)
  | CallM of string * expr * expr list  (** instance call: name, receiver *)
  | FieldGet of expr * string
  | StaticGet of string * string  (** class, field *)
  | NewArr of aty * expr list  (** sizes of the leading dynamic dims *)
  | ArrLit of aty * expr list
  | NewObj of string * expr list
  | This
  | RangeE of expr  (** [Lime.range n] *)
  | ToValueE of expr  (** copying mutable→value conversion *)
  | TaskE of task_desc
  | ConnectE of expr * expr

and task_desc = {
  td_class : string;
  td_method : string;
  td_ctor : expr list option;
  td_isolated : bool;
  td_in : ty;
  td_out : ty;
}

type lval =
  | LVar of string
  | LField of expr * string
  | LStatic of string * string

type stmt =
  | SDecl of string * ty * expr option
  | SAssign of lval * expr
  | SArrStore of expr * expr list * expr  (** base, indices, value *)
  | SIf of expr * stmt list * stmt list
  | SWhile of expr * stmt list
  | SFor of string * expr * expr * stmt list
      (** canonical counted loop: [for (v = lo; v < hi; v++)] *)
  | SParFor of parfor
  | SReduce of reduce
  | SInlineBlock of string * stmt list
      (** early-return region: [SReturn e] inside assigns the named result
          variable and exits the region *)
  | SReturn of expr option
  | SExpr of expr
  | SBreak
  | SContinue
  | SFinish of expr * expr option  (** task graph, optional iteration count *)

and parfor = {
  pf_var : string;  (** parallel index variable *)
  pf_count : expr;
  pf_body : stmt list;
  pf_out : string option;  (** array collecting per-index results, if a map *)
}

and reduce = {
  rd_dst : string;  (** scalar destination variable (declared before) *)
  rd_op : Lime_typecheck.Tast.red_op;
  rd_scalar : scalar;
  rd_arr : expr;
}

type func = {
  fn_name : string;  (** qualified ["Class.method"] *)
  fn_class : string;
  fn_method : string;
  fn_params : (string * ty) list;
  fn_ret : ty;
  fn_body : stmt list;
  fn_static : bool;
  fn_local : bool;
  fn_loc : Lime_support.Loc.t;  (** the method's declaration *)
}

type class_meta = {
  cm_name : string;
  cm_value : bool;
  cm_instance_fields : (string * ty) list;
  cm_static_fields : (string * ty * bool (* final *)) list;
}

type modul = {
  md_funcs : (string, func) Hashtbl.t;
  md_classes : (string, class_meta) Hashtbl.t;
  md_static_inits : (string * string * expr) list;
      (** class, field, initializer — evaluated at module load *)
  md_field_inits : (string * (string * expr) list) list;
      (** per-class instance field initializers, run before the constructor *)
}

let find_func md name = Hashtbl.find_opt md.md_funcs name
let qualify cls m = cls ^ "." ^ m

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let scalar_name = function
  | SInt -> "int"
  | SFloat -> "float"
  | SDouble -> "double"
  | SByte -> "byte"
  | SLong -> "long"
  | SBool -> "bool"
  | SChar -> "char"

let scalar_size_bytes = function
  | SByte | SBool -> 1
  | SChar -> 2
  | SInt | SFloat -> 4
  | SLong | SDouble -> 8

let rec ty_name = function
  | TScalar s -> scalar_name s
  | TArr a ->
      Printf.sprintf "%s%s%s" (scalar_name a.elem)
        (String.concat ""
           (List.map
              (function DFixed n -> Printf.sprintf "[%d]" n | DDyn -> "[]")
              a.dims))
        (if a.value then "v" else "")
  | TObj c -> c
  | TTaskTy (a, b) -> Printf.sprintf "task(%s=>%s)" (ty_name a) (ty_name b)
  | TUnit -> "void"

(** Number of elements of a fully fixed-shape array type, if known. *)
let static_elem_count (a : aty) =
  List.fold_left
    (fun acc d ->
      match (acc, d) with
      | Some n, DFixed k -> Some (n * k)
      | _ -> None)
    (Some 1) a.dims

(** Innermost dimension, if fixed. *)
let innermost_fixed (a : aty) =
  match List.rev a.dims with DFixed n :: _ -> Some n | _ -> None

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec iter_expr f (e : expr) =
  f e;
  match e with
  | Const _ | Var _ | This -> ()
  | Bin (_, _, a, b) | ConnectE (a, b) ->
      iter_expr f a;
      iter_expr f b
  | Un (_, _, a) | Cast (_, _, a) | Len (a, _) | FieldGet (a, _)
  | RangeE a | ToValueE a ->
      iter_expr f a
  | Load (b, idx) ->
      iter_expr f b;
      List.iter (iter_expr f) idx
  | Intrinsic (_, _, args) | CallF (_, args) | NewArr (_, args)
  | ArrLit (_, args) | NewObj (_, args) ->
      List.iter (iter_expr f) args
  | CallM (_, r, args) ->
      iter_expr f r;
      List.iter (iter_expr f) args
  | StaticGet _ -> ()
  | TaskE td -> (
      match td.td_ctor with
      | None -> ()
      | Some args -> List.iter (iter_expr f) args)

(** Every variable an expression mentions, repeats included. *)
let expr_vars (e : expr) : string list =
  let acc = ref [] in
  iter_expr (function Var v -> acc := v :: !acc | _ -> ()) e;
  !acc

(** [mentions p e]: some variable [e] mentions satisfies [p] — the answer
    of [List.exists p (expr_vars e)], stopping at the first hit and
    building no list. *)
let rec mentions (p : string -> bool) (e : expr) : bool =
  match e with
  | Var v -> p v
  | Const _ | This | StaticGet _ -> false
  | Bin (_, _, a, b) | ConnectE (a, b) -> mentions p a || mentions p b
  | Un (_, _, a) | Cast (_, _, a) | Len (a, _) | FieldGet (a, _)
  | RangeE a | ToValueE a ->
      mentions p a
  | Load (b, idx) -> mentions p b || mentions_any p idx
  | Intrinsic (_, _, args) | CallF (_, args) | NewArr (_, args)
  | ArrLit (_, args) | NewObj (_, args) ->
      mentions_any p args
  | CallM (_, r, args) -> mentions p r || mentions_any p args
  | TaskE td -> (
      match td.td_ctor with None -> false | Some args -> mentions_any p args)

and mentions_any p = function
  | [] -> false
  | e :: rest -> mentions p e || mentions_any p rest

(** [iter_stmt ~stmt ?expr s] calls [stmt] on [s] and every statement
    nested in it, parent first, and [expr] on every expression node they
    hold; without [expr], expressions are not walked.  With [sub], the
    walk stops at [s]'s own level: each statement directly nested in [s]
    is handed to [sub] instead. *)
let rec iter_stmt ~(stmt : stmt -> unit) ?expr ?(sub : (stmt -> unit) option)
    (s : stmt) =
  stmt s;
  let fe = match expr with None -> ignore | Some f -> iter_expr f in
  let fs =
    match sub with Some f -> f | None -> fun c -> iter_stmt ~stmt ?expr c
  in
  match s with
  | SDecl (_, _, None) | SBreak | SContinue | SReturn None -> ()
  | SDecl (_, _, Some e) | SReturn (Some e) | SExpr e -> fe e
  | SAssign (lv, e) ->
      (match lv with
      | LVar _ | LStatic _ -> ()
      | LField (r, _) -> fe r);
      fe e
  | SArrStore (b, idx, v) ->
      fe b;
      List.iter fe idx;
      fe v
  | SIf (c, a, b) ->
      fe c;
      List.iter fs a;
      List.iter fs b
  | SWhile (c, b) ->
      fe c;
      List.iter fs b
  | SFor (_, lo, hi, b) ->
      fe lo;
      fe hi;
      List.iter fs b
  | SParFor p ->
      fe p.pf_count;
      List.iter fs p.pf_body
  | SReduce r -> fe r.rd_arr
  | SInlineBlock (_, b) -> List.iter fs b
  | SFinish (g, n) ->
      fe g;
      Option.iter fe n

(** [map_expr f e] rebuilds [e] bottom-up: every node's children are
    mapped first, then [f] rewrites the node. *)
let rec map_expr (f : expr -> expr) (e : expr) : expr =
  let r = map_expr f in
  let rs = List.map r in
  f
    (match e with
    | Const _ | Var _ | This | StaticGet _ -> e
    | Bin (op, s, a, b) -> Bin (op, s, r a, r b)
    | Un (op, s, a) -> Un (op, s, r a)
    | Cast (t, fr, a) -> Cast (t, fr, r a)
    | Load (b, idx) -> Load (r b, rs idx)
    | Len (a, i) -> Len (r a, i)
    | Intrinsic (b, s, args) -> Intrinsic (b, s, rs args)
    | CallF (n, args) -> CallF (n, rs args)
    | CallM (n, rc, args) -> CallM (n, r rc, rs args)
    | FieldGet (a, fl) -> FieldGet (r a, fl)
    | NewArr (t, args) -> NewArr (t, rs args)
    | ArrLit (t, args) -> ArrLit (t, rs args)
    | NewObj (c, args) -> NewObj (c, rs args)
    | RangeE a -> RangeE (r a)
    | ToValueE a -> ToValueE (r a)
    | TaskE td -> TaskE { td with td_ctor = Option.map rs td.td_ctor }
    | ConnectE (a, b) -> ConnectE (r a, r b))

(** [map_stmt ?expr ?stmt s] rebuilds [s] bottom-up: its expressions are
    mapped with [map_expr expr] (left alone without [expr]), its nested
    statements with [map_stmt], and then [stmt] rewrites the rebuilt
    statement. *)
let rec map_stmt ?expr ?(stmt : stmt -> stmt = Fun.id) (s : stmt) : stmt =
  let fe = match expr with None -> Fun.id | Some f -> map_expr f in
  let fs = List.map (map_stmt ?expr ~stmt) in
  stmt
    (match s with
    | SDecl (v, t, init) -> SDecl (v, t, Option.map fe init)
    | SAssign (lv, e) ->
        let lv =
          match lv with
          | LVar _ | LStatic _ -> lv
          | LField (r, f) -> LField (fe r, f)
        in
        SAssign (lv, fe e)
    | SArrStore (b, idx, v) -> SArrStore (fe b, List.map fe idx, fe v)
    | SIf (c, a, b) -> SIf (fe c, fs a, fs b)
    | SWhile (c, b) -> SWhile (fe c, fs b)
    | SFor (v, lo, hi, b) -> SFor (v, fe lo, fe hi, fs b)
    | SParFor p ->
        SParFor { p with pf_count = fe p.pf_count; pf_body = fs p.pf_body }
    | SReduce r -> SReduce { r with rd_arr = fe r.rd_arr }
    | SInlineBlock (n, b) -> SInlineBlock (n, fs b)
    | SReturn e -> SReturn (Option.map fe e)
    | SExpr e -> SExpr (fe e)
    | SBreak | SContinue -> s
    | SFinish (g, n) -> SFinish (fe g, Option.map fe n))

(** Replace whole statements, parent first: [f s = Some repl] splices
    [repl] in place of [s]; [None] keeps [s] and descends into the
    statement lists it holds. *)
let rec expand_stmts (f : stmt -> stmt list option) (ss : stmt list) :
    stmt list =
  List.concat_map
    (fun s ->
      match f s with
      | Some repl -> repl
      | None ->
          let fs = expand_stmts f in
          [
            (match s with
            | SIf (c, a, b) -> SIf (c, fs a, fs b)
            | SWhile (c, b) -> SWhile (c, fs b)
            | SFor (v, lo, hi, b) -> SFor (v, lo, hi, fs b)
            | SParFor p -> SParFor { p with pf_body = fs p.pf_body }
            | SInlineBlock (n, b) -> SInlineBlock (n, fs b)
            | s -> s);
          ])
    ss

(* ------------------------------------------------------------------ *)
(* Pretty printing (for tests and --dump-ir)                           *)
(* ------------------------------------------------------------------ *)

let const_str = function
  | CInt i -> string_of_int i
  | CLong l -> Int64.to_string l ^ "L"
  | CFloat f -> Printf.sprintf "%gf" f
  | CDouble d -> Printf.sprintf "%g" d
  | CBool b -> string_of_bool b

let rec expr_str = function
  | Const c -> const_str c
  | Var v -> v
  | Bin (op, _, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a)
        (Lime_frontend.Ast.binop_name op)
        (expr_str b)
  | Un (op, _, a) ->
      Printf.sprintf "(%s%s)" (Lime_frontend.Ast.unop_name op) (expr_str a)
  | Cast (t, _, a) -> Printf.sprintf "(%s)%s" (scalar_name t) (expr_str a)
  | Load (b, idx) ->
      Printf.sprintf "%s%s" (expr_str b)
        (String.concat ""
           (List.map (fun i -> "[" ^ expr_str i ^ "]") idx))
  | Len (a, i) -> Printf.sprintf "len(%s,%d)" (expr_str a) i
  | Intrinsic (b, _, args) ->
      Printf.sprintf "%s(%s)"
        (Lime_typecheck.Tast.builtin_name b)
        (String.concat ", " (List.map expr_str args))
  | CallF (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_str args))
  | CallM (f, r, args) ->
      Printf.sprintf "%s.%s(%s)" (expr_str r) f
        (String.concat ", " (List.map expr_str args))
  | FieldGet (r, f) -> Printf.sprintf "%s.%s" (expr_str r) f
  | StaticGet (c, f) -> Printf.sprintf "%s::%s" c f
  | NewArr (a, sizes) ->
      Printf.sprintf "new %s(%s)" (ty_name (TArr a))
        (String.concat ", " (List.map expr_str sizes))
  | ArrLit (_, es) ->
      Printf.sprintf "{%s}" (String.concat ", " (List.map expr_str es))
  | NewObj (c, args) ->
      Printf.sprintf "new %s(%s)" c
        (String.concat ", " (List.map expr_str args))
  | This -> "this"
  | RangeE e -> Printf.sprintf "range(%s)" (expr_str e)
  | ToValueE e -> Printf.sprintf "toValue(%s)" (expr_str e)
  | TaskE td -> Printf.sprintf "task %s.%s" td.td_class td.td_method
  | ConnectE (a, b) -> Printf.sprintf "(%s => %s)" (expr_str a) (expr_str b)

let lval_str = function
  | LVar v -> v
  | LField (r, f) -> Printf.sprintf "%s.%s" (expr_str r) f
  | LStatic (c, f) -> Printf.sprintf "%s::%s" c f

let rec stmt_str ?(ind = 0) s =
  let pad = String.make ind ' ' in
  let block b = String.concat "\n" (List.map (stmt_str ~ind:(ind + 2)) b) in
  match s with
  | SDecl (v, t, None) -> Printf.sprintf "%s%s %s;" pad (ty_name t) v
  | SDecl (v, t, Some e) ->
      Printf.sprintf "%s%s %s = %s;" pad (ty_name t) v (expr_str e)
  | SAssign (lv, e) -> Printf.sprintf "%s%s = %s;" pad (lval_str lv) (expr_str e)
  | SArrStore (b, idx, v) ->
      Printf.sprintf "%s%s%s = %s;" pad (expr_str b)
        (String.concat "" (List.map (fun i -> "[" ^ expr_str i ^ "]") idx))
        (expr_str v)
  | SIf (c, a, []) ->
      Printf.sprintf "%sif %s {\n%s\n%s}" pad (expr_str c) (block a) pad
  | SIf (c, a, b) ->
      Printf.sprintf "%sif %s {\n%s\n%s} else {\n%s\n%s}" pad (expr_str c)
        (block a) pad (block b) pad
  | SWhile (c, b) ->
      Printf.sprintf "%swhile %s {\n%s\n%s}" pad (expr_str c) (block b) pad
  | SFor (v, lo, hi, b) ->
      Printf.sprintf "%sfor %s in [%s, %s) {\n%s\n%s}" pad v (expr_str lo)
        (expr_str hi) (block b) pad
  | SParFor p ->
      Printf.sprintf "%sparfor %s in [0, %s)%s {\n%s\n%s}" pad p.pf_var
        (expr_str p.pf_count)
        (match p.pf_out with None -> "" | Some o -> " -> " ^ o)
        (block p.pf_body) pad
  | SReduce r ->
      Printf.sprintf "%s%s = reduce[%s](%s);" pad r.rd_dst
        (match r.rd_op with
        | Lime_typecheck.Tast.RO_Binop op -> Lime_frontend.Ast.binop_name op
        | Lime_typecheck.Tast.RO_Method (c, m) -> c ^ "." ^ m
        | Lime_typecheck.Tast.RO_Builtin b -> Lime_typecheck.Tast.builtin_name b)
        (expr_str r.rd_arr)
  | SInlineBlock (res, b) ->
      Printf.sprintf "%sinline -> %s {\n%s\n%s}" pad res (block b) pad
  | SReturn None -> pad ^ "return;"
  | SReturn (Some e) -> Printf.sprintf "%sreturn %s;" pad (expr_str e)
  | SExpr e -> Printf.sprintf "%s%s;" pad (expr_str e)
  | SBreak -> pad ^ "break;"
  | SContinue -> pad ^ "continue;"
  | SFinish (g, None) -> Printf.sprintf "%sfinish %s;" pad (expr_str g)
  | SFinish (g, Some n) ->
      Printf.sprintf "%sfinish %s x %s;" pad (expr_str g) (expr_str n)
