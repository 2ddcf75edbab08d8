(** Kernel identification and extraction (paper §4.1).

    The compiler treats each *filter* — an isolated task whose worker is a
    static [local] method with value-typed ports — as the unit of offload.
    No alias or dependence analysis is needed: the type system already
    guarantees the worker is pure.

    Extraction turns a worker function into a self-contained kernel:

    - every static call to a [local] function is inlined (OpenCL-style whole
      -kernel inlining; recursion is rejected);
    - reads of [static final] fields are constant-folded;
    - the data-parallel structure is the {!Ir.SParFor} produced by lowering
      a map, and reductions are {!Ir.SReduce} nodes.

    The result contains no calls, no statics, no objects — only parameters,
    locals, loops and arithmetic — which is what both the OpenCL code
    generator and the GPU simulator consume. *)

open Lime_support
module Ir = Lime_ir.Ir

let err ~loc fmt = Diag.error ~phase:Diag.Kernel ~loc fmt

type kernel = {
  k_name : string;  (** qualified worker name, e.g. ["NBody.computeForces"] *)
  k_params : (string * Ir.ty) list;
  k_ret : Ir.ty;
  k_body : Ir.stmt list;
  k_parallel : bool;  (** contains a data-parallel map or reduce *)
  k_uses_double : bool;
}

let group_size = 256

(** Why a task cannot be offloaded (used for diagnostics and tests). *)
type offload_verdict =
  | Offloadable
  | Not_isolated  (** worker is not [local] with value ports *)
  | Stateful  (** instance worker: task-private mutable state stays on host *)
  | No_parallelism  (** no map/reduce inside: offload would not pay *)

let verdict_name = function
  | Offloadable -> "offloadable"
  | Not_isolated -> "not-isolated"
  | Stateful -> "stateful"
  | No_parallelism -> "no-parallelism"

(* ------------------------------------------------------------------ *)
(* Constant folding of static finals                                   *)
(* ------------------------------------------------------------------ *)

(** Fold the initializers of static fields to constants, in declaration
    order: a read of an already folded static becomes its literal, and an
    operator over literals folds to what the host interpreter computes
    ({!Lime_ir.Interp.fold_literal}).  Anything non-constant simply stays
    unfolded (and later blocks offload if the kernel reads it). *)
let static_consts (md : Ir.modul) : (string * string, Ir.const) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let fold (e : Ir.expr) =
    match e with
    | Ir.StaticGet (c, f) -> (
        match Hashtbl.find_opt tbl (c, f) with
        | Some k -> Ir.Const k
        | None -> e)
    | _ -> (
        match Lime_ir.Interp.fold_literal e with
        | Some k -> Ir.Const k
        | None -> e)
  in
  List.iter
    (fun (c, f, e) ->
      match Ir.map_expr fold e with
      | Ir.Const k -> Hashtbl.replace tbl (c, f) k
      | _ -> ())
    md.Ir.md_static_inits;
  tbl

(* ------------------------------------------------------------------ *)
(* Expression rewriting: fold statics, inline calls                    *)
(* ------------------------------------------------------------------ *)

type extract_ctx = {
  md : Ir.modul;
  loc : Loc.t;
      (** the worker's declaration: where every extraction error is
          reported, since the IR carries no per-expression locations *)
  consts : (string * string, Ir.const) Hashtbl.t;
  mutable counter : int;
  mutable depth : int;
  mutable stack : string list;  (** inline stack, for recursion detection *)
}

let fresh ctx prefix =
  ctx.counter <- ctx.counter + 1;
  Printf.sprintf "%%k%s%d" prefix ctx.counter

(** Rewrite an expression, hoisting inlined calls as statements onto [acc]
    (reversed). *)
let rec rw_expr ctx (acc : Ir.stmt list ref) (e : Ir.expr) : Ir.expr =
  let r = rw_expr ctx acc in
  match e with
  | Ir.Const _ | Ir.Var _ -> e
  | Ir.This ->
      err ~loc:ctx.loc "kernel extraction: 'this' cannot appear in a filter"
  | Ir.Bin (op, s, a, b) -> Ir.Bin (op, s, r a, r b)
  | Ir.Un (op, s, a) -> Ir.Un (op, s, r a)
  | Ir.Cast (d, s, a) -> Ir.Cast (d, s, r a)
  | Ir.Load (b, idx) -> Ir.Load (r b, List.map r idx)
  | Ir.Len (a, d) -> Ir.Len (r a, d)
  | Ir.Intrinsic (b, s, args) ->
      (match b with
      | Lime_typecheck.Tast.BPrint ->
          err ~loc:ctx.loc
            "kernel extraction: Lime.print cannot appear in a filter"
      | _ -> ());
      Ir.Intrinsic (b, s, List.map r args)
  | Ir.CallF (name, args) -> inline_call ctx acc name (List.map r args)
  | Ir.CallM (name, _, _) ->
      err ~loc:ctx.loc "kernel extraction: instance call '%s' in a filter" name
  | Ir.FieldGet _ ->
      err ~loc:ctx.loc "kernel extraction: instance field access in a filter"
  | Ir.StaticGet (c, f) -> (
      match Hashtbl.find_opt ctx.consts (c, f) with
      | Some k -> Ir.Const k
      | None ->
          err ~loc:ctx.loc
            "kernel extraction: static field %s.%s is not a compile-time \
             constant"
            c f)
  | Ir.NewArr (a, sizes) -> Ir.NewArr (a, List.map r sizes)
  | Ir.ArrLit (a, es) -> Ir.ArrLit (a, List.map r es)
  | Ir.NewObj (c, _) ->
      err ~loc:ctx.loc
        "kernel extraction: object allocation of '%s' in a filter" c
  | Ir.RangeE n -> Ir.RangeE (r n)
  | Ir.ToValueE _ ->
      err ~loc:ctx.loc
        "kernel extraction: Lime.toValue cannot appear in a filter"
  | Ir.TaskE _ | Ir.ConnectE _ ->
      err ~loc:ctx.loc
        "kernel extraction: nested task graphs are not supported in filters"

and inline_call ctx acc name (args : Ir.expr list) : Ir.expr =
  if List.mem name ctx.stack then
    err ~loc:ctx.loc "kernel extraction: recursive call to '%s' in a filter"
      name;
  if ctx.depth > 32 then
    err ~loc:ctx.loc "kernel extraction: call inlining too deep";
  let f =
    match Ir.find_func ctx.md name with
    | Some f -> f
    | None -> err ~loc:ctx.loc "kernel extraction: unknown function '%s'" name
  in
  if not f.Ir.fn_local then
    err ~loc:ctx.loc "kernel extraction: call to non-local function '%s'" name;
  (* bind arguments to fresh temporaries *)
  let renames =
    List.map2
      (fun (p, t) a ->
        let v = fresh ctx "arg" in
        acc := Ir.SDecl (v, t, Some a) :: !acc;
        (p, v))
      f.Ir.fn_params args
  in
  let res = fresh ctx "ret" in
  acc := Ir.SDecl (res, f.Ir.fn_ret, None) :: !acc;
  ctx.depth <- ctx.depth + 1;
  ctx.stack <- name :: ctx.stack;
  let body = rw_stmts ctx (rename_stmts (subst_of renames) f.Ir.fn_body) in
  ctx.stack <- List.tl ctx.stack;
  ctx.depth <- ctx.depth - 1;
  acc := Ir.SInlineBlock (res, body) :: !acc;
  Ir.Var res

and subst_of (renames : (string * string) list) (v : string) : string =
  match List.assoc_opt v renames with Some v' -> v' | None -> v

(** Alpha-rename variables bound by declarations inside an inlined body so
    repeated inlining of the same function cannot collide.  Parameters are
    renamed per [subst]; locally declared names get a unique suffix. *)
and rename_stmts (subst : string -> string) (body : Ir.stmt list) :
    Ir.stmt list =
  let uid = string_of_int (Hashtbl.hash body land 0xFFFF) in
  let declared = Hashtbl.create 16 in
  let stmt = function
    | Ir.SDecl (v, _, _) | Ir.SFor (v, _, _, _) -> Hashtbl.replace declared v ()
    | Ir.SParFor p -> Hashtbl.replace declared p.Ir.pf_var ()
    | _ -> ()
  in
  List.iter (Ir.iter_stmt ~stmt) body;
  let rn v =
    if Hashtbl.mem declared v then v ^ "$" ^ uid else subst v
  in
  let expr = function Ir.Var v -> Ir.Var (rn v) | e -> e in
  let stmt = function
    | Ir.SDecl (v, t, init) -> Ir.SDecl (rn v, t, init)
    | Ir.SAssign (Ir.LVar v, e) -> Ir.SAssign (Ir.LVar (rn v), e)
    | Ir.SFor (v, lo, hi, b) -> Ir.SFor (rn v, lo, hi, b)
    | Ir.SParFor p ->
        Ir.SParFor
          {
            p with
            Ir.pf_var = rn p.Ir.pf_var;
            pf_out = Option.map rn p.Ir.pf_out;
          }
    | Ir.SReduce rd -> Ir.SReduce { rd with Ir.rd_dst = rn rd.Ir.rd_dst }
    | Ir.SInlineBlock (res, b) -> Ir.SInlineBlock (rn res, b)
    | s -> s
  in
  List.map (Ir.map_stmt ~expr ~stmt) body

and rw_stmts ctx (body : Ir.stmt list) : Ir.stmt list =
  List.concat_map (rw_stmt ctx) body

and rw_stmt ctx (s : Ir.stmt) : Ir.stmt list =
  let acc = ref [] in
  let out =
    match s with
    | Ir.SDecl (v, t, init) ->
        Ir.SDecl (v, t, Option.map (rw_expr ctx acc) init)
    | Ir.SAssign (lv, e) -> Ir.SAssign (lv, rw_expr ctx acc e)
    | Ir.SArrStore (b, idx, v) ->
        Ir.SArrStore
          (rw_expr ctx acc b, List.map (rw_expr ctx acc) idx,
           rw_expr ctx acc v)
    | Ir.SIf (c, a, b) ->
        Ir.SIf (rw_expr ctx acc c, rw_stmts ctx a, rw_stmts ctx b)
    | Ir.SWhile (c, b) ->
        (* a call inside the condition must be re-evaluated per iteration:
           rewrite to while(true) { c'; if (!c') break; body } *)
        let cacc = ref [] in
        let c' = rw_expr ctx cacc c in
        if !cacc = [] then Ir.SWhile (c', rw_stmts ctx b)
        else
          Ir.SWhile
            ( Ir.Const (Ir.CBool true),
              List.rev !cacc
              @ [
                  Ir.SIf
                    ( Ir.Un (Lime_frontend.Ast.Not, Ir.SBool, c'),
                      [ Ir.SBreak ],
                      [] );
                ]
              @ rw_stmts ctx b )
    | Ir.SFor (v, lo, hi, b) ->
        Ir.SFor (v, rw_expr ctx acc lo, rw_expr ctx acc hi, rw_stmts ctx b)
    | Ir.SParFor p ->
        Ir.SParFor
          {
            p with
            Ir.pf_count = rw_expr ctx acc p.Ir.pf_count;
            pf_body = rw_stmts ctx p.Ir.pf_body;
          }
    | Ir.SReduce rd -> Ir.SReduce { rd with Ir.rd_arr = rw_expr ctx acc rd.Ir.rd_arr }
    | Ir.SInlineBlock (res, b) -> Ir.SInlineBlock (res, rw_stmts ctx b)
    | Ir.SReturn e -> Ir.SReturn (Option.map (rw_expr ctx acc) e)
    | Ir.SExpr e -> Ir.SExpr (rw_expr ctx acc e)
    | Ir.SBreak -> Ir.SBreak
    | Ir.SContinue -> Ir.SContinue
    | Ir.SFinish _ ->
        err ~loc:ctx.loc "kernel extraction: finish() cannot appear in a filter"
  in
  List.rev !acc @ [ out ]

(* ------------------------------------------------------------------ *)
(* Nested-map demotion                                                 *)
(* ------------------------------------------------------------------ *)

(** The NDRange parallelizes only the outermost map: any [SParFor] nested
    inside another one becomes an ordinary sequential loop in the kernel.
    This is what exposes the inner scoring loop of a nested map to the
    memory optimizer's reuse patterns (Fig 5c). *)
let rec demote_nested ~inside (body : Ir.stmt list) : Ir.stmt list =
  Ir.expand_stmts
    (function
      | Ir.SParFor p ->
          let b = demote_nested ~inside:true p.Ir.pf_body in
          Some
            [
              (if inside then
                 Ir.SFor (p.Ir.pf_var, Ir.Const (Ir.CInt 0), p.Ir.pf_count, b)
               else Ir.SParFor { p with Ir.pf_body = b });
            ]
      | _ -> None)
    body

(* ------------------------------------------------------------------ *)
(* Kernel properties                                                   *)
(* ------------------------------------------------------------------ *)

let body_has_parallelism (body : Ir.stmt list) =
  let found = ref false in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SParFor _ | Ir.SReduce _ -> found := true
         | _ -> ()))
    body;
  !found

let body_uses_double (k_params : (string * Ir.ty) list) (body : Ir.stmt list) =
  let found = ref false in
  let check_ty = function
    | Ir.TScalar Ir.SDouble -> found := true
    | Ir.TArr { Ir.elem = Ir.SDouble; _ } -> found := true
    | _ -> ()
  in
  List.iter (fun (_, t) -> check_ty t) k_params;
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with Ir.SDecl (_, t, _) -> check_ty t | _ -> ())
       ~expr:(fun e ->
         match e with
         | Ir.Bin (_, Ir.SDouble, _, _)
         | Ir.Un (_, Ir.SDouble, _)
         | Ir.Cast (Ir.SDouble, _, _)
         | Ir.Const (Ir.CDouble _) ->
             found := true
         | _ -> ()))
    body;
  !found

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Decide whether a task can be offloaded, per the paper's rules. *)
let classify (md : Ir.modul) (td : Ir.task_desc) : offload_verdict =
  match Ir.find_func md (Ir.qualify td.Ir.td_class td.Ir.td_method) with
  | None -> Not_isolated
  | Some f ->
      if not td.Ir.td_isolated then Not_isolated
      else if not f.Ir.fn_static then Stateful
      else if not (body_has_parallelism f.Ir.fn_body) then No_parallelism
      else Offloadable

(** Extract a self-contained kernel from a static local worker. *)
let extract (md : Ir.modul) ~(worker : string) : kernel =
  let f =
    match Ir.find_func md worker with
    | Some f -> f
    | None -> err ~loc:Loc.dummy "unknown worker '%s'" worker
  in
  let loc = f.Ir.fn_loc in
  if not f.Ir.fn_static then err ~loc "worker '%s' is not static" worker;
  if not f.Ir.fn_local then err ~loc "worker '%s' is not local" worker;
  let ctx =
    {
      md;
      loc;
      consts = static_consts md;
      counter = 0;
      depth = 0;
      stack = [ worker ];
    }
  in
  let body = demote_nested ~inside:false (rw_stmts ctx f.Ir.fn_body) in
  {
    k_name = f.Ir.fn_name;
    k_params = f.Ir.fn_params;
    k_ret = f.Ir.fn_ret;
    k_body = body;
    k_parallel = body_has_parallelism body;
    k_uses_double = body_uses_double f.Ir.fn_params body;
  }

(** Wrap an extracted kernel back into a callable module so the reference
    interpreter (and the simulator's functional mode) can execute it. *)
let to_module (k : kernel) : Ir.modul =
  let md =
    {
      Ir.md_funcs = Hashtbl.create 1;
      md_classes = Hashtbl.create 1;
      md_static_inits = [];
      md_field_inits = [];
    }
  in
  Hashtbl.add md.Ir.md_funcs k.k_name
    {
      Ir.fn_name = k.k_name;
      fn_class = "";
      fn_method = k.k_name;
      fn_params = k.k_params;
      fn_ret = k.k_ret;
      fn_body = k.k_body;
      fn_static = true;
      fn_local = true;
      fn_loc = Loc.dummy;
    };
  md
