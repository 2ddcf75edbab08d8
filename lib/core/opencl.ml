(** OpenCL C code generation (paper §4.2, Fig 4).

    Generates the kernel source for an extracted kernel under a given set of
    placement decisions.  The emitted code follows the idioms shown in the
    paper:

    - a robust thread loop [for (int i = get_global_id(0); i < n;
      i += get_global_size(0))] so the kernel "executes correctly independent
      of the number of threads" (Fig 4);
    - a bookkeeping struct passed by value carrying array lengths and scalar
      captures (Fig 4b);
    - address-space qualifiers, [__local] tiles with barriers (Fig 5d),
      [__constant] parameters (Fig 5h), [image2d_t] with [read_imagef]
      (Fig 5f), private arrays (Fig 5b), and [float2/float4] vector types
      for vectorized arrays;
    - a two-stage tree reduction for kernels whose top-level construct is a
      reduce.

    The host cannot run OpenCL in this reproduction (see DESIGN.md), so the
    generated source is validated structurally by the test suite and shown
    by the examples; execution happens on the simulator from the same IR and
    the same placement table. *)

module Ir = Lime_ir.Ir
module B = Lime_typecheck.Tast

let buf_add = Buffer.add_string

type gen = {
  b : Buffer.t;
  mutable indent : int;
  placements : (string * Ir.placement) list;
  kernel : Kernel.kernel;
  (* view variables: name -> (root, prefix index exprs) *)
  views : (string, string * Ir.expr list) Hashtbl.t;
  materialized : (string, unit) Hashtbl.t;
      (** view variables that exist as C registers/pointers *)
  mutable out_var : string option;
      (** IR variable aliased to the [_out] kernel parameter *)
  mutable local_decls : string list;  (** __local declarations to hoist *)
  mutable uses_image_sampler : bool;
  mutable in_parfor : bool;  (** inside the NDRange thread loop *)
}

(** C name of a root array, mapping the map-output variable to [_out]. *)
let root_cname g root =
  match g.out_var with
  | Some v when v = root -> "_out"
  | _ ->
      String.map (fun c -> if c = '%' || c = '$' then '_' else c) root

let placement g name =
  (* resolve views to their root array's placement *)
  let root =
    match Hashtbl.find_opt g.views name with Some (r, _) -> r | None -> name
  in
  match List.assoc_opt root g.placements with
  | Some p -> p
  | None -> Ir.default_placement

let line g fmt =
  Printf.ksprintf
    (fun s ->
      buf_add g.b (String.make (2 * g.indent) ' ');
      buf_add g.b s;
      buf_add g.b "\n")
    fmt

let cname s =
  (* IR temporaries look like %name7; make them C identifiers *)
  String.map (fun c -> if c = '%' || c = '$' then '_' else c) s

let scalar_c = function
  | Ir.SInt -> "int"
  | Ir.SFloat -> "float"
  | Ir.SDouble -> "double"
  | Ir.SByte -> "char"
  | Ir.SLong -> "long"
  | Ir.SBool -> "int"
  | Ir.SChar -> "ushort"

let vec_c s w =
  if w = 1 then scalar_c s else Printf.sprintf "%s%d" (scalar_c s) w

let space_qualifier = function
  | Ir.MGlobal -> "__global"
  | Ir.MLocal -> "__local"
  | Ir.MConstant -> "__constant"
  | Ir.MPrivate -> "__private"
  | Ir.MImage -> "" (* image2d_t carries its own access qualifier *)
  | Ir.MHost -> ""

(* ------------------------------------------------------------------ *)
(* Array layout: flat index computation                                *)
(* ------------------------------------------------------------------ *)

(** The length of dimension [d] of root array [name]: a constant when the
    dimension is fixed, otherwise a field of the args struct. *)
let dim_len_c disp (aty : Ir.aty) d =
  match List.nth aty.Ir.dims d with
  | Ir.DFixed n -> string_of_int n
  | Ir.DDyn -> Printf.sprintf "args.%s_len%d" disp d

(** Row stride (in elements) below dimension [d]; vectorized arrays drop the
    innermost dimension into the element type. *)
let stride_c disp (aty : Ir.aty) ~vector_width d =
  let ndims = List.length aty.Ir.dims in
  let last = if vector_width > 1 then ndims - 1 else ndims in
  let factors = ref [] in
  for k = d + 1 to last - 1 do
    factors := dim_len_c disp aty k :: !factors
  done;
  match !factors with [] -> "1" | fs -> String.concat " * " fs

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_c (op : Lime_frontend.Ast.binop) =
  match op with
  | Ushr -> ">>" (* emitted on unsigned operands *)
  | op -> Lime_frontend.Ast.binop_name op

(** A C floating literal that always contains a '.' or exponent. *)
let float_lit f =
  let s = Printf.sprintf "%.9g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

let intrinsic_c (b : B.builtin) (s : Ir.scalar) =
  let native f = if s = Ir.SFloat then "native_" ^ f else f in
  match b with
  | B.BSqrt -> native "sqrt"
  | B.BSin -> native "sin"
  | B.BCos -> native "cos"
  | B.BTan -> native "tan"
  | B.BExp -> native "exp"
  | B.BLog -> native "log"
  | B.BPow -> "pow"
  | B.BAtan2 -> "atan2"
  | B.BAbs -> (match s with Ir.SFloat | Ir.SDouble -> "fabs" | _ -> "abs")
  | B.BMin -> (match s with Ir.SFloat | Ir.SDouble -> "fmin" | _ -> "min")
  | B.BMax -> (match s with Ir.SFloat | Ir.SDouble -> "fmax" | _ -> "max")
  | B.BFloor -> "floor"
  | B.BCeil -> "ceil"
  | B.BRsqrt -> native "rsqrt"
  | B.BRange | B.BToValue | B.BPrint -> "/*unsupported*/"

let root_aty g root : Ir.aty option =
  match List.assoc_opt root g.kernel.Kernel.k_params with
  | Some (Ir.TArr a) -> Some a
  | _ -> None

let rec expr_c g (e : Ir.expr) : string =
  match e with
  | Ir.Const (Ir.CInt i) -> string_of_int i
  | Ir.Const (Ir.CLong l) -> Int64.to_string l ^ "L"
  | Ir.Const (Ir.CFloat f) -> float_lit f ^ "f"
  | Ir.Const (Ir.CDouble d) -> float_lit d
  | Ir.Const (Ir.CBool b) -> if b then "1" else "0"
  | Ir.Var v -> cname v
  | Ir.Bin (Lime_frontend.Ast.Ushr, s, a, b) ->
      let u = match s with Ir.SLong -> "ulong" | _ -> "uint" in
      Printf.sprintf "((%s)((%s)%s >> %s))" (scalar_c s) u (expr_c g a)
        (expr_c g b)
  | Ir.Bin (op, _, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_c g a) (binop_c op) (expr_c g b)
  | Ir.Un (op, _, a) ->
      Printf.sprintf "(%s%s)" (Lime_frontend.Ast.unop_name op) (expr_c g a)
  | Ir.Cast (d, _, a) -> Printf.sprintf "((%s)%s)" (scalar_c d) (expr_c g a)
  | Ir.Load (Ir.Var v, idx) when Hashtbl.mem g.materialized v ->
      view_access g v idx
  | Ir.Load (b, idx) -> load_c g b idx
  | Ir.Len (a, d) -> (
      match Access.resolve g.views a [] with
      | Some (root, _) -> (
          match root_aty g root with
          | Some aty -> dim_len_c (root_cname g root) aty d
          | None -> (
              (* not a kernel parameter: a body-declared intermediate (whose
                 dynamic lengths are args-struct fields, like the scratch
                 buffers) or the _out alias *)
              match local_array_aty g root with
              | Some aty -> dim_len_c (root_cname g root) aty d
              | None -> Printf.sprintf "args.%s_len%d" (root_cname g root) d))
      | None -> "/*len?*/0")
  | Ir.Intrinsic (b, s, args) ->
      Printf.sprintf "%s(%s)" (intrinsic_c b s)
        (String.concat ", " (List.map (expr_c g) args))
  | Ir.This | Ir.CallF _ | Ir.CallM _ | Ir.FieldGet _ | Ir.StaticGet _
  | Ir.NewObj _ | Ir.RangeE _ | Ir.ToValueE _ | Ir.TaskE _ | Ir.ConnectE _ ->
      "/*non-kernel-expr*/0"
  | Ir.NewArr _ | Ir.ArrLit _ -> "/*array-expr*/0"

(** Emit an array access.  Behaviour depends on the root's placement:
    - vectorized: a full access becomes [.sN] component selection on the
      loaded vector; a row access loads the whole vector;
    - image: [read_imagef(tex, smp, (int2)(x, 0))];
    - otherwise: flat pointer indexing with explicit strides. *)
and load_c g (base : Ir.expr) (idx : Ir.expr list) : string =
  match Access.resolve g.views base idx with
  | None -> "/*load?*/0"
  | Some (root, full) -> access_c g root full

(** Access through a *materialized* view: a vector register ([float4 q])
    gets component selection; a pointer view gets direct indexing.  Deeper
    accesses fall back to the root array. *)
and view_access g v (idx : Ir.expr list) : string =
  let root =
    match Hashtbl.find_opt g.views v with Some (r, _) -> r | None -> v
  in
  let p = placement g root in
  let vector_register = p.Ir.space = Ir.MImage || p.Ir.vector_width > 1 in
  match idx with
  | [] -> cname v
  | [ i ] when vector_register -> (
      match i with
      | Ir.Const (Ir.CInt c) ->
          let comp =
            if p.Ir.vector_width > 4 then Printf.sprintf "s%x" (c land 15)
            else [| "x"; "y"; "z"; "w" |].(c land 3)
          in
          Printf.sprintf "%s.%s" (cname v) comp
      | e -> Printf.sprintf "%s[%s]" (cname v) (expr_c g e))
  | [ i ] -> Printf.sprintf "%s[%s]" (cname v) (expr_c g i)
  | _ -> (
      match Access.resolve g.views (Ir.Var v) idx with
      | Some (root, full) -> access_c g root full
      | None -> "/*view?*/0")

and access_c g root (full : Ir.expr list) : string =
  let p = placement g root in
  let aty =
    match root_aty g root with
    | Some a -> a
    | None -> (
        (* locally declared array: private/local; treat dims as fixed *)
        match local_array_aty g root with
        | Some a -> a
        | None -> { Ir.elem = Ir.SFloat; dims = [ Ir.DDyn ]; value = false })
  in
  let ndims = List.length aty.Ir.dims in
  let nidx = List.length full in
  if p.Ir.space = Ir.MImage then begin
    g.uses_image_sampler <- true;
    (* 1-D image indexing: coordinate x = row index; the texel packs the
       innermost dimension (paper: index x maps to (x, 0)) *)
    let row_idx =
      match full with
      | i :: _ -> expr_c g i
      | [] -> "0"
    in
    let texel =
      Printf.sprintf "read_imagef(%s, %s_smp, (int2)(%s, 0))"
        (root_cname g root) (root_cname g root) row_idx
    in
    if nidx = ndims then
      let comp =
        match List.nth full (nidx - 1) with
        | Ir.Const (Ir.CInt c) -> [| "x"; "y"; "z"; "w" |].(c land 3)
        | e -> Printf.sprintf "[%s]" (expr_c g e)
      in
      Printf.sprintf "%s.%s" texel comp
    else texel
  end
  else if p.Ir.vector_width > 1 then begin
    (* innermost dim folded into the vector element type *)
    let lead = List.filteri (fun i _ -> i < ndims - 1) full in
    let flat = flat_index_c g root aty ~vector_width:p.Ir.vector_width lead in
    if nidx = ndims then
      let comp =
        match List.nth full (nidx - 1) with
        | Ir.Const (Ir.CInt c) ->
            if p.Ir.vector_width <= 4 then [| "x"; "y"; "z"; "w" |].(c land 3)
            else Printf.sprintf "s%x" (c land 15)
        | e -> Printf.sprintf "[%s]" (expr_c g e)
      in
      Printf.sprintf "%s[%s].%s" (root_cname g root) flat comp
    else Printf.sprintf "%s[%s]" (root_cname g root) flat
  end
  else begin
    let flat = flat_index_c g root aty ~vector_width:1 full in
    if nidx = ndims then Printf.sprintf "%s[%s]" (root_cname g root) flat
    else Printf.sprintf "(&%s[%s])" (root_cname g root) flat
  end

and flat_index_c g root (aty : Ir.aty) ~vector_width (idx : Ir.expr list) :
    string =
  let padded = (placement g root).Ir.padded in
  let terms =
    List.mapi
      (fun d i ->
        let stride = stride_c (root_cname g root) aty ~vector_width d in
        let stride =
          (* bank-conflict padding widens the row stride by one element *)
          if padded && stride <> "1" then Printf.sprintf "(%s + 1)" stride
          else stride
        in
        if stride = "1" then expr_c g i
        else Printf.sprintf "%s * %s" (expr_c g i) stride)
      idx
  in
  match terms with [] -> "0" | ts -> String.concat " + " ts

and local_array_aty g name : Ir.aty option =
  (* find a declaration in the kernel body *)
  let found = ref None in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SDecl (v, Ir.TArr a, _) when v = name -> found := Some a
         | _ -> ())
       ~expr:(fun _ -> ()))
    g.kernel.Kernel.k_body;
  !found

(* [name]'s single assignment is an array literal: a plain assignment,
   or the return of the inline block it is the result of *)
and assigned_array_literal g name : bool =
  let found = ref false in
  let iter stmt = List.iter (Ir.iter_stmt ~stmt ~expr:ignore) in
  iter
    (function
      | Ir.SAssign (Ir.LVar v, Ir.ArrLit _) when v = name -> found := true
      | Ir.SInlineBlock (v, b) when v = name ->
          iter
            (function
              | Ir.SReturn (Some (Ir.ArrLit _)) -> found := true | _ -> ())
            b
      | _ -> ())
    g.kernel.Kernel.k_body;
  !found

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec stmt_c g (s : Ir.stmt) : unit =
  match s with
  | Ir.SDecl (v, t, init) -> decl_c g v t init
  | Ir.SAssign (Ir.LVar v, Ir.NewArr _) ->
      line g "/* %s: allocated by the host (deferred sizing) */" (cname v)
  | Ir.SAssign (Ir.LVar v, e) -> assign_c g v e
  | Ir.SAssign (_, e) -> line g "/* non-kernel assign */ (void)(%s);" (expr_c g e)
  | Ir.SArrStore (b, idx, v) -> (
      match Access.resolve g.views b idx with
      | Some (root, full) -> store_c g root full v
      | None -> line g "/* unresolved store */;")
  | Ir.SIf (c, a, []) ->
      line g "if (%s) {" (expr_c g c);
      indented g (fun () -> List.iter (stmt_c g) a);
      line g "}"
  | Ir.SIf (c, a, b) ->
      line g "if (%s) {" (expr_c g c);
      indented g (fun () -> List.iter (stmt_c g) a);
      line g "} else {";
      indented g (fun () -> List.iter (stmt_c g) b);
      line g "}"
  | Ir.SWhile (c, b) ->
      line g "while (%s) {" (expr_c g c);
      indented g (fun () -> List.iter (stmt_c g) b);
      line g "}"
  | Ir.SFor (v, lo, hi, b) ->
      line g "for (int %s = %s; %s < %s; %s++) {" (cname v) (expr_c g lo)
        (cname v) (expr_c g hi) (cname v);
      indented g (fun () -> List.iter (stmt_c g) b);
      line g "}"
  | Ir.SParFor p ->
      (* the robust thread loop of Fig 4 *)
      line g "for (int %s = get_global_id(0); %s < %s; %s += get_global_size(0)) {"
        (cname p.Ir.pf_var) (cname p.Ir.pf_var) (expr_c g p.Ir.pf_count)
        (cname p.Ir.pf_var);
      let saved = g.in_parfor in
      g.in_parfor <- true;
      indented g (fun () -> List.iter (stmt_c g) p.Ir.pf_body);
      g.in_parfor <- saved;
      line g "}"
  | Ir.SReduce r when not g.in_parfor ->
      (* whole-kernel reduction: the paper's compiler "may infer a parallel
         reduction" (§4.1) — emit the classic two-stage tree: grid-stride
         per-thread accumulation, then a local-memory tree per work group;
         the host combines the per-group partials *)
      emit_tree_reduction g r
  | Ir.SReduce r ->
      (* per-thread (nested) reduce: a sequential combine in-thread *)
      let arr = r.Ir.rd_arr in
      let n =
        match Access.resolve g.views arr [] with
        | Some (root, _) -> (
            match root_aty g root with
            | Some aty -> dim_len_c (root_cname g root) aty 0
            | None -> (
                match local_array_aty g root with
                | Some aty -> dim_len_c (root_cname g root) aty 0
                | None -> "/*n*/0"))
        | None -> "/*n*/0"
      in
      line g "%s = %s;" (cname r.Ir.rd_dst)
        (expr_c g (Ir.Load (arr, [ Ir.Const (Ir.CInt 0) ])));
      line g "for (int _r = 1; _r < %s; _r++) {" n;
      indented g (fun () ->
          let elem = expr_c g (Ir.Load (arr, [ Ir.Var "_r" ])) in
          line g "%s = %s;" (cname r.Ir.rd_dst)
            (combine_c () r.Ir.rd_op r.Ir.rd_scalar (cname r.Ir.rd_dst) elem));
      line g "}"
  | Ir.SInlineBlock (res, b) ->
      (* single-exit tail return: emit directly; otherwise do/while(0) *)
      if tail_return_only b then begin
        match List.rev b with
        | Ir.SReturn (Some e) :: rest ->
            List.iter (stmt_c g) (List.rev rest);
            assign_c g res e
        | _ -> emit_dowhile g res b
      end
      else emit_dowhile g res b
  | Ir.SReturn (Some (Ir.Var v)) when g.out_var = Some v ->
      line g "/* result delivered in _out */"
  | Ir.SReturn (Some e) ->
      line g "if (get_global_id(0) == 0) _out[0] = %s;" (expr_c g e)
  | Ir.SReturn None -> line g "return;"
  | Ir.SExpr e -> line g "(void)(%s);" (expr_c g e)
  | Ir.SBreak -> line g "break;"
  | Ir.SContinue -> line g "continue;"
  | Ir.SFinish _ -> line g "/* finish: host-side */;"

and combine_c _g op s a b =
  match op with
  | B.RO_Binop bop -> Printf.sprintf "%s %s %s" a (binop_c bop) b
  | B.RO_Builtin bi -> Printf.sprintf "%s(%s, %s)" (intrinsic_c bi s) a b
  | B.RO_Method (c, m) -> Printf.sprintf "%s_%s(%s, %s)" c m a b

and emit_tree_reduction g (r : Ir.reduce) : unit =
  let arr = r.Ir.rd_arr in
  let n =
    match Access.resolve g.views arr [] with
    | Some (root, _) -> (
        match root_aty g root with
        | Some aty -> dim_len_c (root_cname g root) aty 0
        | None -> (
            match local_array_aty g root with
            | Some aty -> dim_len_c (root_cname g root) aty 0
            | None -> "/*n*/0"))
    | None -> "/*n*/0"
  in
  let ty = scalar_c r.Ir.rd_scalar in
  let dst = cname r.Ir.rd_dst in
  let elem_at i = expr_c g (Ir.Load (arr, [ Ir.Var i ])) in
  line g "/* two-stage parallel reduction (inferred from '!') */";
  line g "__local %s _partial[TILE];" ty;
  line g "__local int _pvalid[TILE];";
  line g "int _lid = get_local_id(0);";
  line g "%s _acc;" ty;
  line g "int _has = 0;";
  line g "for (int _r = get_global_id(0); _r < %s; _r += get_global_size(0)) {"
    n;
  indented g (fun () ->
      line g "_acc = _has ? (%s) : %s;"
        (combine_c () r.Ir.rd_op r.Ir.rd_scalar "_acc" (elem_at "%r"))
        (elem_at "%r");
      line g "_has = 1;");
  line g "}";
  line g "_partial[_lid] = _acc;";
  line g "_pvalid[_lid] = _has;";
  line g "barrier(CLK_LOCAL_MEM_FENCE);";
  line g "for (int _s = get_local_size(0) / 2; _s > 0; _s >>= 1) {";
  indented g (fun () ->
      line g "if (_lid < _s && _pvalid[_lid + _s]) {";
      indented g (fun () ->
          line g "_partial[_lid] = _pvalid[_lid] ? (%s) : _partial[_lid + _s];"
            (combine_c () r.Ir.rd_op r.Ir.rd_scalar "_partial[_lid]"
               "_partial[_lid + _s]");
          line g "_pvalid[_lid] = 1;");
      line g "}";
      line g "barrier(CLK_LOCAL_MEM_FENCE);");
  line g "}";
  line g "/* one partial per work group; the host combines them */";
  line g "%s = _partial[0];" dst;
  line g "if (_lid == 0) { _out[get_group_id(0)] = %s; }" dst

and tail_return_only (b : Ir.stmt list) : bool =
  (* true iff the only SReturn in the block is the final statement *)
  let count = ref 0 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s -> match s with Ir.SReturn _ -> incr count | _ -> ())
       ~expr:(fun _ -> ()))
    b;
  match List.rev b with
  | Ir.SReturn _ :: _ -> !count = 1
  | _ -> !count = 0

and emit_dowhile g res b =
  line g "do {";
  indented g (fun () ->
      List.iter
        (fun s ->
          match s with
          | Ir.SReturn (Some e) ->
              assign_c g res e;
              line g "break;"
          | s -> stmt_c g s)
        b);
  line g "} while (0);"

(** Assign an expression to a named variable; array literals are expanded
    into per-component stores on the (private) destination array, and
    array-to-array assignment aliases the destination to the source (C has
    no array assignment; the IR guarantees single assignment for these). *)
and assign_c g dst (e : Ir.expr) : unit =
  match e with
  | Ir.ArrLit (_, es) ->
      List.iteri
        (fun i x -> line g "%s[%d] = %s;" (cname dst) i (expr_c g x))
        es
  | Ir.Var src when is_array_name g dst || is_array_name g src ->
      (match Hashtbl.find_opt g.views src with
      | Some entry -> Hashtbl.replace g.views dst entry
      | None -> Hashtbl.replace g.views dst (src, []));
      line g "/* %s aliases %s */" (cname dst) (cname src)
  | e -> line g "%s = %s;" (cname dst) (expr_c g e)

and is_array_name g v =
  Hashtbl.mem g.views v || local_array_aty g v <> None

and indented g f =
  g.indent <- g.indent + 1;
  f ();
  g.indent <- g.indent - 1

and store_c g root (full : Ir.expr list) (v : Ir.expr) : unit =
  let aty =
    match root_aty g root with
    | Some a -> a
    | None -> (
        match local_array_aty g root with
        | Some a -> a
        | None -> { Ir.elem = Ir.SFloat; dims = [ Ir.DDyn ]; value = false })
  in
  let ndims = List.length aty.Ir.dims in
  let nidx = List.length full in
  if nidx = ndims then
    let p = placement g root in
    let lhs =
      if p.Ir.vector_width > 1 then
        access_c g root full (* component select works as lvalue *)
      else
        Printf.sprintf "%s[%s]" (root_cname g root)
          (flat_index_c g root aty ~vector_width:1 full)
    in
    line g "%s = %s;" lhs (expr_c g v)
  else begin
    (* row store: copy elementwise (or as one vector when vectorized) *)
    let p = placement g root in
    let inner = List.nth_opt aty.Ir.dims (ndims - 1) in
    match (p.Ir.vector_width > 1 && nidx = ndims - 1, inner) with
    | true, Some (Ir.DFixed n) ->
        let flat =
          flat_index_c g root aty ~vector_width:p.Ir.vector_width full
        in
        line g "%s[%s] = %s;" (root_cname g root) flat (row_as_vector g v n p)
    | _, Some (Ir.DFixed n) when n <= 8 ->
        for c = 0 to n - 1 do
          let fullc = full @ [ Ir.Const (Ir.CInt c) ] in
          let lhs =
            Printf.sprintf "%s[%s]" (root_cname g root)
              (flat_index_c g root aty ~vector_width:1 fullc)
          in
          line g "%s = %s;" lhs (row_component g v c)
        done
    | _, dim ->
        (* wide or dynamic rows copy with a loop rather than unrolling *)
        let bound =
          match dim with
          | Some (Ir.DFixed n) -> string_of_int n
          | _ -> dim_len_c (root_cname g root) aty (ndims - 1)
        in
        let fullc = full @ [ Ir.Var "%row_c" ] in
        let lhs =
          Printf.sprintf "%s[%s]" (root_cname g root)
            (flat_index_c g root aty ~vector_width:1 fullc)
        in
        line g "for (int _row_c = 0; _row_c < %s; _row_c++) {" bound;
        indented g (fun () -> line g "%s = %s;" lhs (row_var_component g v));
        line g "}"
  end

(* row components go through expr_c so view aliases and vector registers
   resolve correctly *)
and row_var_component g (v : Ir.expr) : string =
  expr_c g (Ir.Load (v, [ Ir.Var "%row_c" ]))

(** Component [c] of a row value (a view variable or small private array). *)
and row_component g (v : Ir.expr) c : string =
  match v with
  | Ir.ArrLit (_, es) when c < List.length es -> expr_c g (List.nth es c)
  | v -> expr_c g (Ir.Load (v, [ Ir.Const (Ir.CInt c) ]))

and row_as_vector g (v : Ir.expr) inner (p : Ir.placement) : string =
  let w = p.Ir.vector_width in
  match v with
  | Ir.ArrLit (aty, es) when List.length es = w ->
      Printf.sprintf "(%s)(%s)"
        (vec_c aty.Ir.elem w)
        (String.concat ", " (List.map (expr_c g) es))
  | Ir.Var name ->
      Printf.sprintf "vload%d(0, %s)" w (cname name)
  | e -> Printf.sprintf "vload%d(0, %s)" w (expr_c g e) |> fun s ->
      ignore inner; s

and decl_c g v (t : Ir.ty) (init : Ir.expr option) : unit =
  match (t, init) with
  | Ir.TArr aty, Some (Ir.Load (b, idx)) -> (
      (* view declaration *)
      match Access.resolve g.views b idx with
      | Some (root, prefix) ->
          Hashtbl.replace g.views v (root, prefix);
          Hashtbl.replace g.materialized v ();
          let p = placement g root in
          if p.Ir.space = Ir.MImage then
            (* texel view: load the whole texel into a vector register *)
            line g "float4 %s = %s;" (cname v) (access_c g root prefix)
          else if p.Ir.vector_width > 1 then
            line g "%s %s = %s;" (vec_c aty.Ir.elem p.Ir.vector_width)
              (cname v) (access_c g root prefix)
          else begin
            (* pointer into the row *)
            let q = space_qualifier p.Ir.space in
            line g "%s const %s* %s = %s;" q (scalar_c aty.Ir.elem) (cname v)
              (access_c g root prefix)
          end
      | None -> line g "/* unresolved view %s */" (cname v))
  | Ir.TArr aty, Some (Ir.Var src) ->
      (* alias *)
      (match Hashtbl.find_opt g.views src with
      | Some entry -> Hashtbl.replace g.views v entry
      | None -> Hashtbl.replace g.views v (src, []));
      ignore aty
  | Ir.TArr aty, (Some (Ir.NewArr _) | None) when g.out_var = Some v ->
      ignore aty (* the result array is the _out kernel parameter *)
  | Ir.TArr aty, None -> (
      (* an array variable bound later (e.g. an inline-block result): a
         small private one, or one filled by an array literal, is a real
         array; others alias their single assignment *)
      match ((placement g v).Ir.space, Ir.static_elem_count aty) with
      | space, Some n
        when space = Ir.MPrivate || assigned_array_literal g v ->
          line g "%s %s[%d];" (scalar_c aty.Ir.elem) (cname v) n
      | _ ->
          line g "/* %s is bound by its single assignment below */" (cname v))
  | Ir.TArr aty, Some (Ir.NewArr _) -> (
      let p = placement g v in
      match (p.Ir.space, Ir.static_elem_count aty) with
      | Ir.MPrivate, Some n ->
          line g "%s %s[%d];" (scalar_c aty.Ir.elem) (cname v) n
      | Ir.MLocal, Some n ->
          let n = if p.Ir.padded then n + List.length aty.Ir.dims else n in
          line g "__local %s %s[%d];" (scalar_c aty.Ir.elem) (cname v) n
      | _, Some n ->
          (* a per-thread buffer that exceeded the private threshold: the
             host would allocate a global scratch; textually a C array *)
          line g "%s %s[%d]; /* per-thread spill buffer */"
            (scalar_c aty.Ir.elem) (cname v) n
      | _ ->
          line g "/* %s: host-allocated scratch buffer (kernel parameter) */"
            (cname v))
  | Ir.TArr aty, Some (Ir.ArrLit (_, es)) ->
      line g "%s %s[%d] = { %s };" (scalar_c aty.Ir.elem) (cname v)
        (List.length es)
        (String.concat ", " (List.map (expr_c g) es))
  | Ir.TScalar s, Some e ->
      line g "%s %s = %s;" (scalar_c s) (cname v) (expr_c g e)
  | Ir.TScalar s, None -> line g "%s %s;" (scalar_c s) (cname v)
  | _, Some e -> line g "/* %s */ int %s = %s;" (Ir.ty_name t) (cname v) (expr_c g e)
  | _, None -> line g "/* %s %s */" (Ir.ty_name t) (cname v)

(* ------------------------------------------------------------------ *)
(* Kernel assembly                                                     *)
(* ------------------------------------------------------------------ *)

(** The IR variable aliased to the [_out] parameter, if any: the returned
    map-output array. *)
let returned_out_var (k : Kernel.kernel) : string option =
  match List.rev k.Kernel.k_body with
  | Ir.SReturn (Some (Ir.Var v)) :: _ -> Some v
  | _ -> None

(** Kernel-local arrays that the host must allocate as scratch buffers:
    dynamically sized intermediates (e.g. the output of a first map feeding
    a second one).  They become extra [__global] kernel parameters, and
    {!Hostgen} creates matching device buffers. *)
let scratch_buffers (k : Kernel.kernel) : (string * Ir.aty) list =
  let out_var = returned_out_var k in
  let acc = ref [] in
  let rec scan (s : Ir.stmt) =
    match s with
    | Ir.SDecl (v, Ir.TArr aty, Some (Ir.NewArr _))
      when out_var <> Some v && Ir.static_elem_count aty = None ->
        acc := (v, aty) :: !acc
    | Ir.SIf (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | Ir.SInlineBlock (_, b) -> List.iter scan b
    | Ir.SParFor p -> List.iter scan p.Ir.pf_body
    | Ir.SFor (_, _, _, b) | Ir.SWhile (_, b) -> List.iter scan b
    | _ -> ()
  in
  List.iter scan k.Kernel.k_body;
  List.rev !acc

let intermediates g (k : Kernel.kernel) : (string * Ir.aty) list =
  ignore g;
  scratch_buffers k

(** The bookkeeping struct of Fig 4(b): dynamic array lengths plus scalar
    parameters. *)
let args_struct_c ?(extra = []) (k : Kernel.kernel) : string * string list =
  let fields = ref [] in
  List.iter
    (fun (p, t) ->
      match t with
      | Ir.TArr aty ->
          List.iteri
            (fun d dk ->
              match dk with
              | Ir.DDyn -> fields := Printf.sprintf "int %s_len%d;" (cname p) d :: !fields
              | Ir.DFixed _ -> ())
            aty.Ir.dims
      | Ir.TScalar _ -> ()
      | _ -> ())
    k.Kernel.k_params;
  (* scratch-buffer lengths *)
  List.iter
    (fun (p, (aty : Ir.aty)) ->
      List.iteri
        (fun d dk ->
          match dk with
          | Ir.DDyn ->
              fields := Printf.sprintf "int %s_len%d;" (cname p) d :: !fields
          | Ir.DFixed _ -> ())
        aty.Ir.dims)
    extra;
  (* result array lengths *)
  (match k.Kernel.k_ret with
  | Ir.TArr aty ->
      List.iteri
        (fun d dk ->
          match dk with
          | Ir.DDyn -> fields := Printf.sprintf "int _out_len%d;" d :: !fields
          | Ir.DFixed _ -> ())
        aty.Ir.dims
  | _ -> ());
  let name =
    "KArgs_" ^ cname (String.map (fun c -> if c = '.' then '_' else c)
                        k.Kernel.k_name)
  in
  (name, List.rev !fields)

let param_decl_c g (p : string) (t : Ir.ty) : string option =
  match t with
  | Ir.TArr aty -> (
      let pl = placement g p in
      match pl.Ir.space with
      | Ir.MImage -> Some (Printf.sprintf "__read_only image2d_t %s" (cname p))
      | Ir.MConstant ->
          Some
            (Printf.sprintf "__constant %s* restrict %s"
               (vec_c aty.Ir.elem pl.Ir.vector_width)
               (cname p))
      | Ir.MLocal ->
          (* staged through a local tile; the global source still comes in *)
          Some
            (Printf.sprintf "__global const %s* restrict %s"
               (vec_c aty.Ir.elem pl.Ir.vector_width)
               (cname p))
      | _ ->
          let const = if aty.Ir.value then "const " else "" in
          Some
            (Printf.sprintf "__global %s%s* restrict %s" const
               (vec_c aty.Ir.elem pl.Ir.vector_width)
               (cname p)))
  | Ir.TScalar s -> Some (Printf.sprintf "%s %s" (scalar_c s) (cname p))
  | _ -> None

(** Emit the local-memory staging loop of Fig 5(d) for arrays placed in
    local memory: threads of the work group cooperatively copy a tile and
    barrier before use. *)
let local_staging_c g =
  List.iter
    (fun (name, p) ->
      if p.Ir.space = Ir.MLocal then begin
        match List.assoc_opt name g.kernel.Kernel.k_params with
        | Some (Ir.TArr aty) ->
            let rowlen =
              match Ir.innermost_fixed aty with Some n -> n | None -> 1
            in
            let stride = if p.Ir.padded then rowlen + 1 else rowlen in
            line g "/* stage %s through local memory (tile + barrier) */"
              (cname name);
            line g "__local %s %s_tile[TILE * %d];" (scalar_c aty.Ir.elem)
              (cname name) stride;
            line g "const int tile_base = 0; /* tile loop elided: whole-array staging */";
            line g "for (int t = get_local_id(0); t < TILE * %d; t += get_local_size(0)) {"
              rowlen;
            indented g (fun () ->
                if p.Ir.padded then begin
                  line g "int row = t / %d;" rowlen;
                  line g "int col = t %% %d;" rowlen;
                  line g "%s_tile[row * %d + col] = ((__global const %s*)%s)[tile_base * %d + t];"
                    (cname name) stride (scalar_c aty.Ir.elem) (cname name)
                    rowlen
                end
                else
                  line g "%s_tile[t] = ((__global const %s*)%s)[tile_base * %d + t];"
                    (cname name) (scalar_c aty.Ir.elem) (cname name) rowlen);
            line g "}";
            line g "barrier(CLK_LOCAL_MEM_FENCE);"
        | _ -> ()
      end)
    g.placements

(** Generate the OpenCL source of a kernel under the given placements. *)
let generate (k : Kernel.kernel)
    (decisions : Memopt.decision list) : string =
  let placements = Memopt.placements decisions in
  let g =
    {
      b = Buffer.create 4096;
      indent = 0;
      placements;
      kernel = k;
      views = Hashtbl.create 16;
      materialized = Hashtbl.create 16;
      out_var = None;
      local_decls = [];
      uses_image_sampler = false;
      in_parfor = false;
    }
  in
  (* the returned map-output array becomes the _out kernel parameter *)
  (match List.rev k.Kernel.k_body with
  | Ir.SReturn (Some (Ir.Var v)) :: _ -> g.out_var <- Some v
  | _ -> ());
  let kname =
    String.map (fun c -> if c = '.' then '_' else c) k.Kernel.k_name
  in
  if k.Kernel.k_uses_double then
    buf_add g.b "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\n";
  let inter = intermediates g k in
  let sname, fields = args_struct_c ~extra:inter k in
  buf_add g.b (Printf.sprintf "#define TILE %d\n\n" Kernel.group_size);
  buf_add g.b (Printf.sprintf "typedef struct {\n");
  List.iter (fun f -> buf_add g.b ("  " ^ f ^ "\n")) fields;
  if fields = [] then buf_add g.b "  int _unused;\n";
  buf_add g.b (Printf.sprintf "} %s;\n\n" sname);
  (* sampler for image arrays *)
  let has_image =
    List.exists (fun (_, p) -> p.Ir.space = Ir.MImage) placements
  in
  if has_image then
    List.iter
      (fun (name, p) ->
        if p.Ir.space = Ir.MImage then
          buf_add g.b
            (Printf.sprintf
               "__constant sampler_t %s_smp = CLK_NORMALIZED_COORDS_FALSE | \
                CLK_ADDRESS_CLAMP | CLK_FILTER_NEAREST;\n"
               (cname name)))
      placements;
  if has_image then buf_add g.b "\n";
  (* signature *)
  let out_param =
    match k.Kernel.k_ret with
    | Ir.TArr aty ->
        let pl =
          match
            List.find_opt
              (fun (n, _) -> Lime_support.Util.starts_with ~prefix:"%mapout" n)
              placements
          with
          | Some (_, p) -> p
          | None -> Ir.default_placement
        in
        [ Printf.sprintf "__global %s* restrict _out"
            (vec_c aty.Ir.elem pl.Ir.vector_width) ]
    | Ir.TScalar s -> [ Printf.sprintf "__global %s* restrict _out" (scalar_c s) ]
    | _ -> []
  in
  let inter_params =
    List.map
      (fun (p, (aty : Ir.aty)) ->
        Printf.sprintf
          "__global %s* restrict %s /* scratch (per-work-item slices in a \
           real deployment) */"
          (scalar_c aty.Ir.elem) (cname p))
      inter
  in
  let params =
    List.filter_map (fun (p, t) -> param_decl_c g p t) k.Kernel.k_params
    @ inter_params
    @ out_param
    @ [ Printf.sprintf "%s args" sname ]
  in
  buf_add g.b (Printf.sprintf "__kernel void %s(\n    %s)\n{\n" kname
                 (String.concat ",\n    " params));
  g.indent <- 1;
  local_staging_c g;
  List.iter (stmt_c g) k.Kernel.k_body;
  g.indent <- 0;
  buf_add g.b "}\n";
  Buffer.contents g.b
