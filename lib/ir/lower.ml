(** Lowering from the typed AST to the mid-level IR.

    Key transformations:

    - [f(captured...) @ arr] → {!Ir.SParFor} over the array with the body of
      [f] inlined inside an {!Ir.SInlineBlock} (captured arguments are
      evaluated once, before the loop);
    - [g ! arr] → {!Ir.SReduce};
    - canonical counted loops ([for (int i = a; i < b; i++)]) are recognized
      and become {!Ir.SFor}, which is what the memory optimizer's loop
      patterns (Fig 5) match on; other [for] forms desugar to [while];
    - compound expressions with effects are flattened: [lower_expr] appends
      prelude statements to an accumulator and returns a pure expression.

    Lowering is semantics-preserving by construction; the differential tests
    (interpreter vs simulator vs reference implementations) rely on it. *)

open Lime_support
open Lime_frontend.Ast
open Lime_typecheck.Tast
module T = Lime_typecheck.Tast

let err ~loc fmt = Diag.error ~phase:Diag.Lowering ~loc fmt

let scalar_of_prim = function
  | PInt -> Ir.SInt
  | PFloat -> Ir.SFloat
  | PDouble -> Ir.SDouble
  | PByte -> Ir.SByte
  | PLong -> Ir.SLong
  | PBoolean -> Ir.SBool
  | PChar -> Ir.SChar

let dimk_of_dim = function
  | DimDyn -> Ir.DDyn
  | DimValUnbounded -> Ir.DDyn
  | DimValBounded n -> Ir.DFixed n

let rec lower_ty ~loc (t : ty) : Ir.ty =
  match t with
  | TPrim p -> Ir.TScalar (scalar_of_prim p)
  | TVoid -> Ir.TUnit
  | TNamed c -> Ir.TObj c
  | TTask (a, b) -> Ir.TTaskTy (lower_ty ~loc a, lower_ty ~loc b)
  | TArray _ -> (
      let base = base_ty t and dims = dims_of t in
      match base with
      | TPrim p ->
          let value =
            List.for_all (function DimDyn -> false | _ -> true) dims
          in
          Ir.TArr
            {
              elem = scalar_of_prim p;
              dims = List.map dimk_of_dim dims;
              value;
            }
      | _ ->
          err ~loc "arrays of objects are not supported: %s" (ty_to_string t))

let aty_of_ty ~loc (t : ty) : Ir.aty =
  match lower_ty ~loc t with
  | Ir.TArr a -> a
  | _ -> err ~loc "expected an array type, found %s" (ty_to_string t)

let scalar_of_ty ~loc (t : ty) : Ir.scalar =
  match lower_ty ~loc t with
  | Ir.TScalar s -> s
  | _ -> err ~loc "expected a scalar type, found %s" (ty_to_string t)

(* ------------------------------------------------------------------ *)
(* Lowering environment                                                *)
(* ------------------------------------------------------------------ *)

type env = {
  prog : T.tprogram;
  mutable acc : Ir.stmt list;  (** reversed prelude statements *)
  mutable rename : (string * string) list;
      (** source variable → IR variable (supports hygienic inlining) *)
  mutable counter : int;
  this_expr : Ir.expr option;  (** receiver of the method being lowered *)
  mutable inline_depth : int;
}

let fresh env prefix =
  env.counter <- env.counter + 1;
  Printf.sprintf "%%%s%d" prefix env.counter

let emit env s = env.acc <- s :: env.acc

(** Run [f] collecting its emitted statements separately. *)
let collect env f =
  let saved = env.acc in
  env.acc <- [];
  let result = f () in
  let stmts = List.rev env.acc in
  env.acc <- saved;
  (stmts, result)

let rename_var env v =
  match List.assoc_opt v env.rename with Some v' -> v' | None -> v

let with_renames env pairs f =
  let saved = env.rename in
  env.rename <- pairs @ env.rename;
  let r = f () in
  env.rename <- saved;
  r

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let lower_const (l : lit) : Ir.const =
  match l with
  | LInt i -> Ir.CInt (Int64.to_int i)
  | LFloat f -> Ir.CFloat f
  | LDouble d -> Ir.CDouble d
  | LBool b -> Ir.CBool b
  | LChar c -> Ir.CInt (Char.code c)
  | LString _ -> Ir.CInt 0 (* strings only appear in Lime.print on the host *)
  | LNull -> Ir.CInt 0

let rec lower_expr env (e : texpr) : Ir.expr =
  let loc = e.tloc in
  match e.te with
  | TLit l -> Ir.Const (lower_const l)
  | TLocal v -> Ir.Var (rename_var env v)
  | TThis -> (
      match env.this_expr with Some t -> t | None -> Ir.This)
  | TBinop (((And | Or) as op), a, b) ->
      (* Java short-circuit semantics: the right operand must not evaluate
         when the left decides the result *)
      let v = fresh env "sc" in
      emit env (Ir.SDecl (v, Ir.TScalar Ir.SBool, None));
      let ea = lower_expr env a in
      let sb, eb = collect env (fun () -> lower_expr env b) in
      let assign e = [ Ir.SAssign (Ir.LVar v, e) ] in
      (match op with
      | And ->
          emit env
            (Ir.SIf (ea, sb @ assign eb, assign (Ir.Const (Ir.CBool false))))
      | Or ->
          emit env
            (Ir.SIf (ea, assign (Ir.Const (Ir.CBool true)), sb @ assign eb))
      | _ -> assert false);
      Ir.Var v
  | TBinop (op, a, b) ->
      let s =
        match (op, a.ety) with
        | (Lt | Le | Gt | Ge | Eq | Ne), t -> scalar_of_operand ~loc t
        | _, t -> scalar_of_operand ~loc t
      in
      Ir.Bin (op, s, lower_expr env a, lower_expr env b)
  | TUnop (op, a) ->
      Ir.Un (op, scalar_of_operand ~loc a.ety, lower_expr env a)
  | TCond (c, a, b) ->
      (* lower via if-statement so both arms stay lazily evaluated *)
      let v = fresh env "cond" in
      let tv = lower_ty ~loc a.ety in
      emit env (Ir.SDecl (v, tv, None));
      let cE = lower_expr env c in
      let sa, ea = collect env (fun () -> lower_expr env a) in
      let sb, eb = collect env (fun () -> lower_expr env b) in
      emit env
        (Ir.SIf
           ( cE,
             sa @ [ Ir.SAssign (Ir.LVar v, ea) ],
             sb @ [ Ir.SAssign (Ir.LVar v, eb) ] ));
      Ir.Var v
  | TIndex (a, i) -> (
      let ea = lower_expr env a in
      let ei = lower_expr env i in
      (* merge chained loads into one multi-index load *)
      match ea with
      | Ir.Load (b, idx) -> Ir.Load (b, idx @ [ ei ])
      | _ -> Ir.Load (ea, [ ei ]))
  | TArrayLen a -> (
      let ea = lower_expr env a in
      match ea with
      | Ir.Load (b, idx) -> Ir.Len (Ir.Load (b, idx), 0)
      | _ -> Ir.Len (ea, 0))
  | TFieldStatic (c, f) -> Ir.StaticGet (c, f)
  | TFieldInstance (r, f) -> Ir.FieldGet (lower_expr env r, f)
  | TCallStatic (c, m, args) ->
      Ir.CallF (Ir.qualify c m, List.map (lower_expr env) args)
  | TCallInstance (r, m, args) ->
      let er = lower_expr env r in
      let cls =
        match r.ety with
        | TNamed c -> c
        | _ -> err ~loc "instance call on non-object"
      in
      Ir.CallM (Ir.qualify cls m, er, List.map (lower_expr env) args)
  | TCallBuiltin (BRange, [ n ]) -> Ir.RangeE (lower_expr env n)
  | TCallBuiltin (BToValue, [ a ]) -> Ir.ToValueE (lower_expr env a)
  | TCallBuiltin (b, args) ->
      let s =
        match e.ety with
        | TVoid -> Ir.SInt
        | t -> scalar_of_operand ~loc t
      in
      Ir.Intrinsic (b, s, List.map (lower_expr env) args)
  | TNewArray (t, sizes) ->
      Ir.NewArr (aty_of_ty ~loc t, List.map (lower_expr env) sizes)
  | TNewObject (c, args) -> Ir.NewObj (c, List.map (lower_expr env) args)
  | TArrayLit es ->
      Ir.ArrLit (aty_of_ty ~loc e.ety, List.map (lower_expr env) es)
  | TCast (t, a) ->
      Ir.Cast
        (scalar_of_ty ~loc t, scalar_of_operand ~loc:a.tloc a.ety,
         lower_expr env a)
  | TMap (info, captured, arr) -> lower_map env ~loc info captured arr e.ety
  | TReduce (info, arr) -> lower_reduce env ~loc info arr
  | TTaskE tr -> lower_task env ~loc tr
  | TConnect (a, b) -> Ir.ConnectE (lower_expr env a, lower_expr env b)
  | TFinish _ -> err ~loc "finish() can only be used as a statement"

and scalar_of_operand ~loc (t : ty) : Ir.scalar =
  match t with
  | TPrim p -> scalar_of_prim p
  | _ -> err ~loc "expected a scalar operand, found %s" (ty_to_string t)

(** Lower [f(captured) @ arr].  The result is a fresh array [out]; the loop
    body inlines [f] hygienically. *)
and lower_map env ~loc (info : map_info) captured (arr : texpr) (result_ty : ty)
    : Ir.expr =
  if env.inline_depth > 8 then
    err ~loc "map nesting too deep (recursive map function?)";
  let m =
    match T.find_method env.prog info.mi_class info.mi_method with
    | Some m -> m
    | None -> err ~loc "internal: unknown map function"
  in
  (* evaluate the array operand and captured arguments once.  Mapping over
     [Lime.range n] is special-cased: no index array is materialized and the
     element is the parallel index itself — the idiomatic way to build value
     arrays procedurally. *)
  let arr_e = lower_expr env arr in
  let over_range, arr_v =
    match arr_e with
    | Ir.RangeE n ->
        let n_v = fresh env "n" in
        emit env (Ir.SDecl (n_v, Ir.TScalar Ir.SInt, Some n));
        (Some n_v, "")
    | _ ->
        let arr_v = fresh env "maparr" in
        emit env (Ir.SDecl (arr_v, lower_ty ~loc arr.ety, Some arr_e));
        (None, arr_v)
  in
  let cap_vars =
    List.map
      (fun (c : texpr) ->
        let v = fresh env "cap" in
        emit env (Ir.SDecl (v, lower_ty ~loc c.ety, Some (lower_expr env c)));
        v)
      captured
  in
  let n_v =
    match over_range with
    | Some n_v -> n_v
    | None ->
        let n_v = fresh env "n" in
        emit env
          (Ir.SDecl (n_v, Ir.TScalar Ir.SInt, Some (Ir.Len (Ir.Var arr_v, 0))));
        n_v
  in
  (* output array: out[i] holds f(arr[i]).  The outer dimension is static
     when mapping over a constant-bound range — independent of any widening
     applied to the expression's declared type. *)
  let out_aty =
    let declared = aty_of_ty ~loc result_ty in
    let outer =
      match List.hd declared.Ir.dims with
      | Ir.DFixed k -> Ir.DFixed k
      | Ir.DDyn -> (
          match over_range with
          | Some n_v -> (
              (* recover the constant if the range bound was a literal *)
              let bound = ref Ir.DDyn in
              List.iter
                (fun s ->
                  match s with
                  | Ir.SDecl (v, _, Some (Ir.Const (Ir.CInt k))) when v = n_v
                    ->
                      bound := Ir.DFixed k
                  | _ -> ())
                (List.rev env.acc);
              !bound)
          | None -> Ir.DDyn)
    in
    let inner =
      match lower_ty ~loc m.tm_ret with
      | Ir.TScalar _ -> []
      | Ir.TArr a -> a.Ir.dims
      | _ -> err ~loc "map function must return a value type"
    in
    { declared with Ir.dims = outer :: inner }
  in
  let out_v = fresh env "mapout" in
  (* rows with inner dimensions unknown at this point (the map function
     returns an unbounded array) defer allocation to the first iteration,
     when the first row's lengths are observable *)
  let inner_dyn_dims =
    match out_aty.Ir.dims with
    | _ :: inner ->
        List.filteri (fun _ d -> d = Ir.DDyn) inner |> List.length
    | [] -> 0
  in
  let deferred_alloc = inner_dyn_dims > 0 in
  if deferred_alloc then emit env (Ir.SDecl (out_v, Ir.TArr out_aty, None))
  else
    emit env
      (Ir.SDecl
         ( out_v,
           Ir.TArr out_aty,
           Some (Ir.NewArr (out_aty, [ Ir.Var n_v ])) ));
  let idx_v = fresh env "pi" in
  let body, _ =
    collect env (fun () ->
        let elem_v =
          match over_range with
          | Some _ -> idx_v (* the element *is* the parallel index *)
          | None ->
              let elem_v = fresh env "elem" in
              emit env
                (Ir.SDecl
                   ( elem_v,
                     lower_ty ~loc info.mi_elem_ty,
                     Some (Ir.Load (Ir.Var arr_v, [ Ir.Var idx_v ])) ));
              elem_v
        in
        (* bind parameters: leading = captured, last = element *)
        let param_names = List.map fst m.tm_params in
        let leading, last =
          let rec split = function
            | [ x ] -> ([], x)
            | x :: rest ->
                let l, z = split rest in
                (x :: l, z)
            | [] -> assert false
          in
          split param_names
        in
        let renames =
          List.combine leading cap_vars @ [ (last, elem_v) ]
        in
        let res_v = fresh env "res" in
        emit env (Ir.SDecl (res_v, lower_ty ~loc m.tm_ret, None));
        let inlined, _ =
          collect env (fun () ->
              env.inline_depth <- env.inline_depth + 1;
              (* the inlined body must not see the caller's renames: only
                 the parameter bindings *)
              let saved = env.rename in
              env.rename <- renames;
              List.iter (lower_stmt env) m.tm_body;
              env.rename <- saved;
              env.inline_depth <- env.inline_depth - 1)
        in
        emit env (Ir.SInlineBlock (res_v, inlined));
        if deferred_alloc then begin
          (* size the output from the first row: rectangular by the value
             semantics (every row of a map has the same shape) *)
          let inner_sizes =
            match out_aty.Ir.dims with
            | _ :: inner ->
                List.filteri (fun _ d -> d = Ir.DDyn) inner
                |> List.mapi (fun i _ -> Ir.Len (Ir.Var res_v, i))
            | [] -> []
          in
          emit env
            (Ir.SIf
               ( Ir.Bin (Eq, Ir.SInt, Ir.Var idx_v, Ir.Const (Ir.CInt 0)),
                 [
                   Ir.SAssign
                     ( Ir.LVar out_v,
                       Ir.NewArr (out_aty, Ir.Var n_v :: inner_sizes) );
                 ],
                 [] ))
        end;
        emit env (Ir.SArrStore (Ir.Var out_v, [ Ir.Var idx_v ], Ir.Var res_v)))
  in
  emit env
    (Ir.SParFor
       { pf_var = idx_v; pf_count = Ir.Var n_v; pf_body = body; pf_out = Some out_v });
  Ir.Var out_v

and lower_reduce env ~loc (info : red_info) (arr : texpr) : Ir.expr =
  let s = scalar_of_operand ~loc info.ri_elem_ty in
  let arr_e = lower_expr env arr in
  let dst = fresh env "red" in
  emit env (Ir.SDecl (dst, Ir.TScalar s, None));
  emit env
    (Ir.SReduce { rd_dst = dst; rd_op = info.ri_op; rd_scalar = s; rd_arr = arr_e });
  Ir.Var dst

and lower_task env ~loc (tr : ttask_ref) : Ir.expr =
  Ir.TaskE
    {
      td_class = tr.tt_class;
      td_method = tr.tt_method;
      td_ctor = Option.map (List.map (lower_expr env)) tr.tt_ctor_args;
      td_isolated = tr.tt_isolated;
      td_in = lower_ty ~loc tr.tt_input;
      td_out = lower_ty ~loc tr.tt_output;
    }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and lower_lvalue env (lv : tlvalue) : [ `Simple of Ir.lval | `Store of Ir.expr * Ir.expr list ] =
  match lv with
  | LVar (v, _) -> `Simple (Ir.LVar (rename_var env v))
  | LFieldStatic (c, f, _) -> `Simple (Ir.LStatic (c, f))
  | LFieldInstance (r, f, _) -> `Simple (Ir.LField (lower_expr env r, f))
  | LIndex (a, i, _) -> (
      let ea = lower_expr env a in
      let ei = lower_expr env i in
      match ea with
      | Ir.Load (b, idx) -> `Store (b, idx @ [ ei ])
      | _ -> `Store (ea, [ ei ]))

and lower_stmt env (st : tstmt) : unit =
  let loc = st.tsloc in
  match st.ts with
  | TSVarDecl (t, name, init) ->
      let v = fresh env (String.map (fun c -> if c = '%' then '_' else c) name) in
      env.rename <- (name, v) :: env.rename;
      let e = Option.map (lower_expr env) init in
      emit env (Ir.SDecl (v, lower_ty ~loc t, e))
  | TSAssign (lv, e) -> (
      let rhs = lower_expr env e in
      match lower_lvalue env lv with
      | `Simple l -> emit env (Ir.SAssign (l, rhs))
      | `Store (b, idx) -> emit env (Ir.SArrStore (b, idx, rhs)))
  | TSIf (c, a, b) ->
      let ce = lower_expr env c in
      let sa, () = collect env (fun () -> lower_block env a) in
      let sb, () =
        collect env (fun () -> Option.iter (lower_block env) b)
      in
      emit env (Ir.SIf (ce, sa, sb))
  | TSWhile (c, body) ->
      (* the condition may have a prelude (e.g. method calls); re-evaluate it
         each iteration by placing the prelude inside the loop *)
      let cs, ce = collect env (fun () -> lower_expr env c) in
      if cs = [] then begin
        let sb, () = collect env (fun () -> lower_block env body) in
        emit env (Ir.SWhile (ce, sb))
      end
      else begin
        let sb, () = collect env (fun () -> lower_block env body) in
        emit env
          (Ir.SWhile
             ( Ir.Const (Ir.CBool true),
               cs
               @ [ Ir.SIf (Ir.Un (Not, Ir.SBool, ce), [ Ir.SBreak ], []) ]
               @ sb ))
      end
  | TSFor (init, cond, step, body) -> lower_for env ~loc init cond step body
  | TSReturn None -> emit env (Ir.SReturn None)
  | TSReturn (Some e) ->
      let ee = lower_expr env e in
      emit env (Ir.SReturn (Some ee))
  | TSExpr { te = TFinish (g, n); _ } ->
      let ge = lower_expr env g in
      let ne = Option.map (lower_expr env) n in
      emit env (Ir.SFinish (ge, ne))
  | TSExpr e -> emit env (Ir.SExpr (lower_expr env e))
  | TSBlock body ->
      (* scoping is handled by renaming: names shadow via the assoc list *)
      lower_block_list env body
  | TSBreak -> emit env Ir.SBreak
  | TSContinue -> emit env Ir.SContinue

and lower_block env (body : tstmt) : unit =
  match body.ts with
  | TSBlock stmts ->
      let saved = env.rename in
      List.iter (lower_stmt env) stmts;
      env.rename <- saved
  | _ -> lower_stmt env body

and lower_block_list env (body : tstmt list) : unit =
  let saved = env.rename in
  List.iter (lower_stmt env) body;
  env.rename <- saved

(** Recognize the canonical counted loop
    [for (int i = lo; i < hi; i++) body] and produce {!Ir.SFor}. *)
and lower_for env ~loc init cond step body =
  let canonical =
    match (init, cond, step) with
    | ( Some { ts = TSVarDecl (TPrim PInt, iv, Some lo); _ },
        Some
          {
            te = TBinop (Lt, { te = TLocal cv; _ }, hi);
            _;
          },
        Some
          {
            ts =
              TSAssign
                ( LVar (sv, _),
                  {
                    te =
                      TBinop
                        ( Add,
                          { te = TLocal sv2; _ },
                          { te = TLit (LInt 1L); _ } );
                    _;
                  } );
            _;
          } )
      when iv = cv && iv = sv && iv = sv2 ->
        Some (iv, lo, hi)
    | _ -> None
  in
  match canonical with
  | Some (iv, lo, hi) ->
      let lo_e = lower_expr env lo in
      let v = fresh env iv in
      let hi_s, hi_e =
        collect env (fun () ->
            with_renames env [ (iv, v) ] (fun () -> lower_expr env hi))
      in
      (* hi is evaluated once, before the loop *)
      List.iter (emit env) hi_s;
      let sb, () =
        collect env (fun () ->
            with_renames env [ (iv, v) ] (fun () -> lower_block env body))
      in
      emit env (Ir.SFor (v, lo_e, hi_e, sb))
  | None ->
      (* general for: desugar to while *)
      let saved = env.rename in
      Option.iter (lower_stmt env) init;
      let cs, ce =
        collect env (fun () ->
            match cond with
            | None -> ((), Ir.Const (Ir.CBool true)) |> snd
            | Some c -> lower_expr env c)
      in
      let sb, () =
        collect env (fun () ->
            lower_block env body;
            Option.iter (lower_stmt env) step)
      in
      (* reject 'continue' in desugared loops: it would skip the step *)
      List.iter
        (Ir.iter_stmt
           ~stmt:(fun s ->
             match s with
             | Ir.SContinue ->
                 err ~loc
                   "'continue' is only supported in canonical counted for \
                    loops"
             | _ -> ())
           ~expr:(fun _ -> ()))
        sb;
      emit env
        (Ir.SWhile
           ( Ir.Const (Ir.CBool true),
             cs
             @ [ Ir.SIf (Ir.Un (Not, Ir.SBool, ce), [ Ir.SBreak ], []) ]
             @ sb ));
      env.rename <- saved

(* ------------------------------------------------------------------ *)
(* Declarations → module                                               *)
(* ------------------------------------------------------------------ *)

let lower_method (prog : T.tprogram) (m : T.tmethod) : Ir.func =
  let env =
    {
      prog;
      acc = [];
      rename = [];
      counter = 0;
      this_expr = None;
      inline_depth = 0;
    }
  in
  lower_block_list env m.tm_body;
  {
    Ir.fn_name = Ir.qualify m.tm_class m.tm_name;
    fn_class = m.tm_class;
    fn_method = m.tm_name;
    fn_params =
      List.map (fun (n, t) -> (n, lower_ty ~loc:m.tm_loc t)) m.tm_params;
    fn_ret = lower_ty ~loc:m.tm_loc m.tm_ret;
    fn_body = List.rev env.acc;
    fn_static = T.method_is_static m;
    fn_local = T.method_is_local m;
  }

let lower_program (prog : T.tprogram) : Ir.modul =
  let md =
    {
      Ir.md_funcs = Hashtbl.create 32;
      md_classes = Hashtbl.create 16;
      md_static_inits = [];
      md_field_inits = [];
    }
  in
  let static_inits = ref [] in
  let field_inits = ref [] in
  List.iter
    (fun (c : T.tclass) ->
      let instance_fields = ref [] and static_fields = ref [] in
      List.iter
        (fun (f : T.tfield) ->
          let t = lower_ty ~loc:f.tf_loc f.tf_ty in
          if is_static f.tf_mods then begin
            static_fields :=
              (f.tf_name, t, is_final f.tf_mods) :: !static_fields;
            match f.tf_init with
            | Some init ->
                let env =
                  {
                    prog;
                    acc = [];
                    rename = [];
                    counter = 0;
                    this_expr = None;
                    inline_depth = 0;
                  }
                in
                let e = lower_expr env init in
                if env.acc <> [] then
                  err ~loc:f.tf_loc
                    "static field initializers must be simple expressions";
                static_inits := (c.tc_name, f.tf_name, e) :: !static_inits
            | None -> ()
          end
          else begin
            instance_fields := (f.tf_name, t) :: !instance_fields;
            match f.tf_init with
            | Some init ->
                let env =
                  {
                    prog;
                    acc = [];
                    rename = [];
                    counter = 0;
                    this_expr = None;
                    inline_depth = 0;
                  }
                in
                let e = lower_expr env init in
                if env.acc <> [] then
                  err ~loc:f.tf_loc
                    "instance field initializers must be simple expressions";
                let existing =
                  try List.assoc c.tc_name !field_inits with Not_found -> []
                in
                field_inits :=
                  (c.tc_name, existing @ [ (f.tf_name, e) ])
                  :: List.remove_assoc c.tc_name !field_inits
            | None -> ()
          end)
        c.tc_fields;
      Hashtbl.add md.Ir.md_classes c.tc_name
        {
          Ir.cm_name = c.tc_name;
          cm_value = c.tc_value;
          cm_instance_fields = List.rev !instance_fields;
          cm_static_fields = List.rev !static_fields;
        };
      List.iter
        (fun (m : T.tmethod) ->
          Hashtbl.add md.Ir.md_funcs
            (Ir.qualify m.tm_class m.tm_name)
            (lower_method prog m))
        c.tc_methods)
    prog.tp_classes;
  {
    md with
    Ir.md_static_inits = List.rev !static_inits;
    md_field_inits = !field_inits;
  }
