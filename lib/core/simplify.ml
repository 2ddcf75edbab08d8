(** Kernel IR simplifier: constant folding, algebraic identities and dead
    declaration elimination.

    Runs after kernel extraction (inlining leaves behind folded static
    finals, single-use temporaries and identity arithmetic) and before the
    memory optimizer.  Every rewrite is semantics-preserving under the
    interpreter's Java numerics: an operator over literals folds to what
    {!Lime_ir.Interp.fold_literal} evaluates it to — the interpreter's own
    operators, single-precision rounding and 32-bit wrapping included — and
    stays put wherever the interpreter would raise, so the differential
    tests pin the pass down.

    Folding float expressions is deliberately conservative: only exact
    identities (x*1, x+0, 0/…) and literal-literal operations are touched,
    never reassociation. *)

module Ir = Lime_ir.Ir
open Lime_frontend.Ast

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

(* One node, its children already simplified: fold it if its operands are
   literals, else apply an exact identity. *)
let rec fold (e : Ir.expr) : Ir.expr =
  match (Lime_ir.Interp.fold_literal e, e) with
  | Some k, _ -> Ir.Const k
  | None, Ir.Bin (op, s, a, b) -> (
      match (a, b, op, s) with
      (* exact algebraic identities *)
      | ( x,
          Ir.Const (Ir.CInt 0),
          (Add | Sub | BitOr | BitXor | Shl | Shr | Ushr),
          _ ) ->
          x
      | Ir.Const (Ir.CInt 0), y, (Add | BitOr | BitXor), _ -> y
      | x, Ir.Const (Ir.CInt 1), (Mul | Div), _ -> x
      | Ir.Const (Ir.CInt 1), y, Mul, _ -> y
      | _, Ir.Const (Ir.CInt 0), Mul, (Ir.SInt | Ir.SByte | Ir.SChar)
        when pure a ->
          Ir.Const (Ir.CInt 0)
      | Ir.Const (Ir.CInt 0), _, Mul, (Ir.SInt | Ir.SByte | Ir.SChar)
        when pure b ->
          Ir.Const (Ir.CInt 0)
      | x, Ir.Const (Ir.CFloat 1.0), (Mul | Div), Ir.SFloat -> x
      | Ir.Const (Ir.CFloat 1.0), y, Mul, Ir.SFloat -> y
      | x, Ir.Const (Ir.CFloat 0.0), (Add | Sub), Ir.SFloat -> x
      | x, Ir.Const (Ir.CDouble 1.0), (Mul | Div), Ir.SDouble -> x
      | x, Ir.Const (Ir.CDouble 0.0), (Add | Sub), Ir.SDouble -> x
      (* boolean short circuits on literals *)
      | Ir.Const (Ir.CBool true), y, And, _ -> y
      | Ir.Const (Ir.CBool false), _, And, _ -> Ir.Const (Ir.CBool false)
      | Ir.Const (Ir.CBool false), y, Or, _ -> y
      | Ir.Const (Ir.CBool true), _, Or, _ -> Ir.Const (Ir.CBool true)
      | _ -> e)
  | None, _ -> e

(** Is the expression free of side effects (calls can print or fail)? *)
and pure (e : Ir.expr) : bool =
  match e with
  | Ir.Const _ | Ir.Var _ | Ir.This | Ir.StaticGet _ | Ir.Len _ -> true
  | Ir.Bin ((Div | Mod), _, a, b) ->
      (* integer division can trap *)
      (match b with Ir.Const (Ir.CInt n) -> n <> 0 | _ -> false) && pure a
  | Ir.Bin (_, _, a, b) -> pure a && pure b
  | Ir.Un (_, _, a) | Ir.Cast (_, _, a) | Ir.FieldGet (a, _) -> pure a
  | Ir.Load (b, idx) -> pure b && List.for_all pure idx
      (* bounds errors: loads are treated as pure only for *removal* of
         unused values when the indices are in-range by construction; we
         keep this conservative and only rely on it for [Var]-rooted loads
         with constant indices below *)
  | Ir.Intrinsic (b, _, args) ->
      b <> Lime_typecheck.Tast.BPrint && List.for_all pure args
  | Ir.ArrLit (_, es) -> List.for_all pure es
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Statement simplification + dead declaration elimination             *)
(* ------------------------------------------------------------------ *)

let simp_expr = Ir.map_expr fold

let rec simp_stmt (s : Ir.stmt) : Ir.stmt list =
  match s with
  | Ir.SIf (c, a, b) -> (
      match simp_expr c with
      | Ir.Const (Ir.CBool true) -> simp_stmts a
      | Ir.Const (Ir.CBool false) -> simp_stmts b
      | c -> [ Ir.SIf (c, simp_stmts a, simp_stmts b) ])
  | Ir.SWhile (c, b) -> (
      match simp_expr c with
      | Ir.Const (Ir.CBool false) -> []
      | c -> [ Ir.SWhile (c, simp_stmts b) ])
  | Ir.SFor (v, lo, hi, b) -> (
      let lo = simp_expr lo and hi = simp_expr hi in
      match (lo, hi) with
      | Ir.Const (Ir.CInt l), Ir.Const (Ir.CInt h) when h <= l -> []
      | _ -> [ Ir.SFor (v, lo, hi, simp_stmts b) ])
  | Ir.SParFor p ->
      [
        Ir.SParFor
          {
            p with
            Ir.pf_count = simp_expr p.Ir.pf_count;
            pf_body = simp_stmts p.Ir.pf_body;
          };
      ]
  | Ir.SInlineBlock (res, b) -> (
      (* a block whose body is exactly one trailing return collapses *)
      match simp_stmts b with
      | [ Ir.SReturn (Some e) ] -> [ Ir.SAssign (Ir.LVar res, e) ]
      | b -> [ Ir.SInlineBlock (res, b) ])
  | Ir.SExpr e ->
      let e = simp_expr e in
      if pure e then [] else [ Ir.SExpr e ]
  | _ -> [ Ir.map_stmt ~expr:fold s ]

and simp_stmts (b : Ir.stmt list) : Ir.stmt list =
  List.concat_map simp_stmt b

(* dead declaration elimination: remove SDecls of variables never read,
   when the initializer is pure.  Iterates to a fixpoint (removing one decl
   can orphan another). *)

let used_vars (body : Ir.stmt list) : (string, int) Hashtbl.t =
  let uses = Hashtbl.create 64 in
  let bump v = Hashtbl.replace uses v (1 + Option.value ~default:0 (Hashtbl.find_opt uses v)) in
  let expr e = Ir.iter_expr (function Ir.Var v -> bump v | _ -> ()) e in
  let stmt (s : Ir.stmt) =
    match s with
    | Ir.SAssign (Ir.LVar _, _) -> () (* the target itself is not a use *)
    | Ir.SReduce r -> bump r.Ir.rd_dst |> ignore
    | _ -> ()
  in
  List.iter (Ir.iter_stmt ~stmt ~expr) body;
  uses

let rec eliminate_dead (body : Ir.stmt list) : Ir.stmt list =
  let uses = used_vars body in
  let changed = ref false in
  let unread v = not (Hashtbl.mem uses v) in
  let body =
    Ir.expand_stmts
      (function
        | Ir.SDecl (v, _, init)
          when unread v && Option.fold ~none:true ~some:pure init ->
            changed := true;
            Some []
        | Ir.SAssign (Ir.LVar v, e) when unread v && pure e ->
            changed := true;
            Some []
        | _ -> None)
      body
  in
  if !changed then eliminate_dead body else body

(** Simplify a kernel: fold constants, apply identities, prune dead code. *)
let kernel (k : Kernel.kernel) : Kernel.kernel =
  { k with Kernel.k_body = eliminate_dead (simp_stmts k.Kernel.k_body) }
