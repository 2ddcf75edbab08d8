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

(* Every emitter appends to [b] rather than returning a string, so no text
   is copied into its parent's.  The lookup tables are built once per
   [generate] (see [make_gen]): an emitted reference costs a hash lookup,
   never a walk of the kernel body. *)
type gen = {
  b : Buffer.t;
  mutable indent : int;
  placement_of : (string, Ir.placement) Hashtbl.t;
  param_ty : (string, Ir.ty) Hashtbl.t;
  body_aty : (string, Ir.aty) Hashtbl.t;
      (** arrays declared in the kernel body; the last declaration wins *)
  literal_arrays : (string, unit) Hashtbl.t;
      (** names whose single assignment is an array literal *)
  (* view variables: name -> (root, prefix index exprs) *)
  views : (string, string * Ir.expr list) Hashtbl.t;
  materialized : (string, unit) Hashtbl.t;
      (** view variables that exist as C registers/pointers *)
  out_var : string option;
      (** IR variable aliased to the [_out] kernel parameter *)
  mutable in_parfor : bool;  (** inside the NDRange thread loop *)
}

let add g s = Buffer.add_string g.b s
let add_char g c = Buffer.add_char g.b c
(* digit by digit: [string_of_int] parses a format on every call *)
let rec add_digits b i =
  if i >= 10 then add_digits b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

let add_int g i =
  if i >= 0 then add_digits g.b i else Buffer.add_string g.b (string_of_int i)

(** An IR name as a C identifier: temporaries look like [%name7]. *)
let add_cname g s =
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    Buffer.add_char g.b (if c = '%' || c = '$' then '_' else c)
  done

(** The C name of a root array, mapping the map-output variable to [_out]. *)
let add_root g root =
  match g.out_var with
  | Some v when v = root -> add g "_out"
  | _ -> add_cname g root

(* A line is its indentation, then appends, then [eol]. *)
let bol g =
  for _ = 1 to g.indent do
    add g "  "
  done

let eol g s =
  add g s;
  add_char g '\n'

let line g s =
  bol g;
  eol g s

(* a line of [pre], what [f] prints, then [post] *)
let line_of g pre f post =
  bol g;
  add g pre;
  f ();
  eol g post

let indented g f =
  g.indent <- g.indent + 1;
  f ();
  g.indent <- g.indent - 1

(* [f] over [xs] with [sep] between *)
let add_sep g sep f xs =
  List.iteri
    (fun i x ->
      if i > 0 then add g sep;
      f x)
    xs

let placement g name =
  (* resolve views to their root array's placement *)
  let root =
    match Hashtbl.find_opt g.views name with Some (r, _) -> r | None -> name
  in
  match Hashtbl.find_opt g.placement_of root with
  | Some p -> p
  | None -> Ir.default_placement

(** The array type of [root]: a kernel parameter's, else a body
    declaration's. *)
let array_aty g root : Ir.aty option =
  match Hashtbl.find_opt g.param_ty root with
  | Some (Ir.TArr a) -> Some a
  | _ -> Hashtbl.find_opt g.body_aty root

let scalar_c = function
  | Ir.SInt -> "int"
  | Ir.SFloat -> "float"
  | Ir.SDouble -> "double"
  | Ir.SByte -> "char"
  | Ir.SLong -> "long"
  | Ir.SBool -> "int"
  | Ir.SChar -> "ushort"

let add_vec g s w =
  add g (scalar_c s);
  if w <> 1 then add_int g w

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

(* the args-struct field holding dimension [d] of [root] *)
let add_len_field g root d =
  add g "args.";
  add_root g root;
  add g "_len";
  add_int g d

(** The length of dimension [d] of root array [root]: a constant when the
    dimension is fixed, otherwise a field of the args struct. *)
let add_dim_len g root (aty : Ir.aty) d =
  match List.nth aty.Ir.dims d with
  | Ir.DFixed n -> add_int g n
  | Ir.DDyn -> add_len_field g root d

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_c (op : Lime_frontend.Ast.binop) =
  match op with
  | Ushr -> ">>" (* emitted on unsigned operands *)
  | op -> Lime_frontend.Ast.binop_name op

(* The runtime's C formatter behind Printf's "%g" conversions; called
   directly, no format is interpreted per literal. *)
external format_float : string -> float -> string = "caml_format_float"

(** A C floating literal that always contains a '.' or exponent. *)
let float_lit f =
  let s = format_float "%.9g" f in
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

(** Vector component [c]: [.x]–[.w], or [.s0]–[.sf] past four lanes. *)
let add_lane g ~wide c =
  if wide then begin
    add_char g 's';
    add_char g "0123456789abcdef".[c land 15]
  end
  else add_char g "xyzw".[c land 3]

(* the type assumed for an array the printer knows nothing about *)
let unknown_aty = { Ir.elem = Ir.SFloat; dims = [ Ir.DDyn ]; value = false }

let rec expr g (e : Ir.expr) : unit =
  match e with
  | Ir.Const (Ir.CInt i) -> add_int g i
  | Ir.Const (Ir.CLong l) ->
      add g (Int64.to_string l);
      add_char g 'L'
  | Ir.Const (Ir.CFloat f) ->
      add g (float_lit f);
      add_char g 'f'
  | Ir.Const (Ir.CDouble d) -> add g (float_lit d)
  | Ir.Const (Ir.CBool b) -> add_char g (if b then '1' else '0')
  | Ir.Var v -> add_cname g v
  | Ir.Bin (Lime_frontend.Ast.Ushr, s, a, b) ->
      add g "((";
      add g (scalar_c s);
      add g (match s with Ir.SLong -> ")((ulong)" | _ -> ")((uint)");
      expr g a;
      add g " >> ";
      expr g b;
      add g "))"
  | Ir.Bin (op, _, a, b) ->
      add_char g '(';
      expr g a;
      add_char g ' ';
      add g (binop_c op);
      add_char g ' ';
      expr g b;
      add_char g ')'
  | Ir.Un (op, _, a) ->
      add_char g '(';
      add g (Lime_frontend.Ast.unop_name op);
      expr g a;
      add_char g ')'
  | Ir.Cast (d, _, a) ->
      add g "((";
      add g (scalar_c d);
      add_char g ')';
      expr g a;
      add_char g ')'
  | Ir.Load (Ir.Var v, idx) when Hashtbl.mem g.materialized v ->
      view_access g v idx
  | Ir.Load (b, idx) -> (
      match Access.resolve g.views b idx with
      | None -> add g "/*load?*/0"
      | Some (root, full) -> access g root full)
  | Ir.Len (a, d) -> (
      match Access.resolve g.views a [] with
      | Some (root, _) -> (
          (* a kernel parameter, or a body-declared intermediate whose
             dynamic lengths are args-struct fields like the scratch
             buffers'; else the _out alias *)
          match array_aty g root with
          | Some aty -> add_dim_len g root aty d
          | None -> add_len_field g root d)
      | None -> add g "/*len?*/0")
  | Ir.Intrinsic (b, s, args) ->
      add g (intrinsic_c b s);
      add_char g '(';
      add_sep g ", " (expr g) args;
      add_char g ')'
  | Ir.This | Ir.CallF _ | Ir.CallM _ | Ir.FieldGet _ | Ir.StaticGet _
  | Ir.NewObj _ | Ir.RangeE _ | Ir.ToValueE _ | Ir.TaskE _ | Ir.ConnectE _ ->
      add g "/*non-kernel-expr*/0"
  | Ir.NewArr _ | Ir.ArrLit _ -> add g "/*array-expr*/0"

(** Access through a *materialized* view: a vector register ([float4 q])
    gets component selection; a pointer view gets direct indexing.  Deeper
    accesses fall back to the root array. *)
and view_access g v (idx : Ir.expr list) : unit =
  let root =
    match Hashtbl.find_opt g.views v with Some (r, _) -> r | None -> v
  in
  let p = placement g root in
  let vector_register = p.Ir.space = Ir.MImage || p.Ir.vector_width > 1 in
  match idx with
  | [] -> add_cname g v
  | [ Ir.Const (Ir.CInt c) ] when vector_register ->
      add_cname g v;
      add_char g '.';
      add_lane g ~wide:(p.Ir.vector_width > 4) c
  | [ i ] ->
      add_cname g v;
      add_char g '[';
      expr g i;
      add_char g ']'
  | _ -> (
      match Access.resolve g.views (Ir.Var v) idx with
      | Some (root, full) -> access g root full
      | None -> add g "/*view?*/0")

(** Emit an array access.  Behaviour depends on the root's placement:
    - vectorized: a full access becomes [.sN] component selection on the
      loaded vector; a row access loads the whole vector;
    - image: [read_imagef(tex, smp, (int2)(x, 0))];
    - otherwise: flat pointer indexing with explicit strides. *)
and access g root (full : Ir.expr list) : unit =
  let p = placement g root in
  (* a locally declared array is private/local: its dims are fixed *)
  let aty = Option.value (array_aty g root) ~default:unknown_aty in
  let ndims = List.length aty.Ir.dims in
  let nidx = List.length full in
  let lane ~wide = selected_lane g (List.nth full (nidx - 1)) ~wide in
  if p.Ir.space = Ir.MImage then begin
    (* 1-D image indexing: coordinate x = row index; the texel packs the
       innermost dimension (paper: index x maps to (x, 0)) *)
    add g "read_imagef(";
    add_root g root;
    add g ", ";
    add_root g root;
    add g "_smp, (int2)(";
    (match full with i :: _ -> expr g i | [] -> add_char g '0');
    add g ", 0))";
    if nidx = ndims then lane ~wide:false
  end
  else if p.Ir.vector_width > 1 then begin
    (* innermost dim folded into the vector element type *)
    let lead = List.filteri (fun i _ -> i < ndims - 1) full in
    add_root g root;
    add_char g '[';
    flat_index g root aty p ~vector_width:p.Ir.vector_width lead;
    add_char g ']';
    if nidx = ndims then lane ~wide:(p.Ir.vector_width > 4)
  end
  else if nidx = ndims then element g root aty p full
  else begin
    add g "(&";
    element g root aty p full;
    add_char g ')'
  end

(* the component a full access selects: [.x], or [.[e]] *)
and selected_lane g (e : Ir.expr) ~wide =
  add_char g '.';
  match e with
  | Ir.Const (Ir.CInt c) -> add_lane g ~wide c
  | e ->
      add_char g '[';
      expr g e;
      add_char g ']'

(* [root[flat index]] over scalar elements *)
and element g root aty p full =
  add_root g root;
  add_char g '[';
  flat_index g root aty p ~vector_width:1 full;
  add_char g ']'

(* The row stride below dimension [d] is the product of the lengths of
   dimensions [d+1 .. last-1], printed innermost first; vectorized arrays
   drop the innermost dimension into the element type. *)
and flat_index g root (aty : Ir.aty) (p : Ir.placement) ~vector_width
    (idx : Ir.expr list) : unit =
  let ndims = List.length aty.Ir.dims in
  let last = if vector_width > 1 then ndims - 1 else ndims in
  if idx = [] then add_char g '0'
  else
    List.iteri
      (fun d i ->
        if d > 0 then add g " + ";
        expr g i;
        (* a stride that prints as "1" (no factor, or the single factor 1)
           is left out *)
        let unit =
          d + 1 >= last
          || (d + 2 = last && List.nth aty.Ir.dims (d + 1) = Ir.DFixed 1)
        in
        if not unit then begin
          (* bank-conflict padding widens the row stride by one element *)
          add g (if p.Ir.padded then " * (" else " * ");
          for k = last - 1 downto d + 1 do
            add_dim_len g root aty k;
            if k > d + 1 then add g " * "
          done;
          if p.Ir.padded then add g " + 1)"
        end)
      idx

(** [a op b] for a reduce operator; [a] and [b] print the operands. *)
let combine g op s a b =
  let call f =
    add g f;
    add_char g '(';
    a ();
    add g ", ";
    b ();
    add_char g ')'
  in
  match op with
  | B.RO_Binop bop ->
      a ();
      add_char g ' ';
      add g (binop_c bop);
      add_char g ' ';
      b ()
  | B.RO_Builtin bi -> call (intrinsic_c bi s)
  | B.RO_Method (c, m) -> call (c ^ "_" ^ m)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec stmt g (s : Ir.stmt) : unit =
  match s with
  | Ir.SDecl (v, t, init) -> decl g v t init
  | Ir.SAssign (Ir.LVar v, Ir.NewArr _) ->
      line_of g "/* " (fun () -> add_cname g v)
        ": allocated by the host (deferred sizing) */"
  | Ir.SAssign (Ir.LVar v, e) -> assign g v e
  | Ir.SAssign (_, e) ->
      line_of g "/* non-kernel assign */ (void)(" (fun () -> expr g e) ");"
  | Ir.SArrStore (b, idx, v) -> (
      match Access.resolve g.views b idx with
      | Some (root, full) -> store g root full v
      | None -> line g "/* unresolved store */;")
  | Ir.SIf (c, a, b) ->
      line_of g "if (" (fun () -> expr g c) ") {";
      block g a;
      if b <> [] then begin
        line g "} else {";
        block g b
      end;
      line g "}"
  | Ir.SWhile (c, b) ->
      line_of g "while (" (fun () -> expr g c) ") {";
      block g b;
      line g "}"
  | Ir.SFor (v, lo, hi, b) ->
      bol g;
      add g "for (int ";
      add_cname g v;
      add g " = ";
      expr g lo;
      add g "; ";
      add_cname g v;
      add g " < ";
      expr g hi;
      add g "; ";
      add_cname g v;
      eol g "++) {";
      block g b;
      line g "}"
  | Ir.SParFor p ->
      (* the robust thread loop of Fig 4 *)
      bol g;
      add g "for (int ";
      add_cname g p.Ir.pf_var;
      add g " = get_global_id(0); ";
      add_cname g p.Ir.pf_var;
      add g " < ";
      expr g p.Ir.pf_count;
      add g "; ";
      add_cname g p.Ir.pf_var;
      eol g " += get_global_size(0)) {";
      let saved = g.in_parfor in
      g.in_parfor <- true;
      block g p.Ir.pf_body;
      g.in_parfor <- saved;
      line g "}"
  | Ir.SReduce r when not g.in_parfor ->
      (* whole-kernel reduction: the paper's compiler "may infer a parallel
         reduction" (§4.1) — emit the classic two-stage tree: grid-stride
         per-thread accumulation, then a local-memory tree per work group;
         the host combines the per-group partials *)
      tree_reduction g r
  | Ir.SReduce r ->
      (* per-thread (nested) reduce: a sequential combine in-thread *)
      let arr = r.Ir.rd_arr in
      let dst () = add_cname g r.Ir.rd_dst in
      bol g;
      dst ();
      add g " = ";
      expr g (Ir.Load (arr, [ Ir.Const (Ir.CInt 0) ]));
      eol g ";";
      line_of g "for (int _r = 1; _r < " (fun () -> reduce_len g arr)
        "; _r++) {";
      indented g (fun () ->
          bol g;
          dst ();
          add g " = ";
          combine g r.Ir.rd_op r.Ir.rd_scalar dst (fun () ->
              expr g (Ir.Load (arr, [ Ir.Var "_r" ])));
          eol g ";");
      line g "}"
  | Ir.SInlineBlock (res, b) ->
      (* single-exit tail return: emit directly; otherwise do/while(0) *)
      if tail_return_only b then begin
        match List.rev b with
        | Ir.SReturn (Some e) :: rest ->
            List.iter (stmt g) (List.rev rest);
            assign g res e
        | _ -> dowhile g res b
      end
      else dowhile g res b
  | Ir.SReturn (Some (Ir.Var v)) when g.out_var = Some v ->
      line g "/* result delivered in _out */"
  | Ir.SReturn (Some e) ->
      line_of g "if (get_global_id(0) == 0) _out[0] = " (fun () -> expr g e) ";"
  | Ir.SReturn None -> line g "return;"
  | Ir.SExpr e -> line_of g "(void)(" (fun () -> expr g e) ");"
  | Ir.SBreak -> line g "break;"
  | Ir.SContinue -> line g "continue;"
  | Ir.SFinish _ -> line g "/* finish: host-side */;"

and block g (b : Ir.stmt list) = indented g (fun () -> List.iter (stmt g) b)

(* the length a reduce runs over: dimension 0 of its array *)
and reduce_len g arr =
  match Access.resolve g.views arr [] with
  | Some (root, _) -> (
      match array_aty g root with
      | Some aty -> add_dim_len g root aty 0
      | None -> add g "/*n*/0")
  | None -> add g "/*n*/0"

and tree_reduction g (r : Ir.reduce) : unit =
  let arr = r.Ir.rd_arr in
  let ty () = add g (scalar_c r.Ir.rd_scalar) in
  let dst () = add_cname g r.Ir.rd_dst in
  let elem () = expr g (Ir.Load (arr, [ Ir.Var "%r" ])) in
  let text s () = add g s in
  let combine a b = combine g r.Ir.rd_op r.Ir.rd_scalar a b in
  line g "/* two-stage parallel reduction (inferred from '!') */";
  line_of g "__local " ty " _partial[TILE];";
  line g "__local int _pvalid[TILE];";
  line g "int _lid = get_local_id(0);";
  line_of g "" ty " _acc;";
  line g "int _has = 0;";
  line_of g "for (int _r = get_global_id(0); _r < " (fun () -> reduce_len g arr)
    "; _r += get_global_size(0)) {";
  indented g (fun () ->
      line_of g "_acc = _has ? ("
        (fun () ->
          combine (text "_acc") elem;
          add g ") : ";
          elem ())
        ";";
      line g "_has = 1;");
  line g "}";
  line g "_partial[_lid] = _acc;";
  line g "_pvalid[_lid] = _has;";
  line g "barrier(CLK_LOCAL_MEM_FENCE);";
  line g "for (int _s = get_local_size(0) / 2; _s > 0; _s >>= 1) {";
  indented g (fun () ->
      line g "if (_lid < _s && _pvalid[_lid + _s]) {";
      indented g (fun () ->
          line_of g "_partial[_lid] = _pvalid[_lid] ? ("
            (fun () -> combine (text "_partial[_lid]") (text "_partial[_lid + _s]"))
            ") : _partial[_lid + _s];";
          line g "_pvalid[_lid] = 1;");
      line g "}";
      line g "barrier(CLK_LOCAL_MEM_FENCE);");
  line g "}";
  line g "/* one partial per work group; the host combines them */";
  line_of g "" dst " = _partial[0];";
  line_of g "if (_lid == 0) { _out[get_group_id(0)] = " dst "; }"

and tail_return_only (b : Ir.stmt list) : bool =
  (* true iff the only SReturn in the block is the final statement *)
  let count = ref 0 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s -> match s with Ir.SReturn _ -> incr count | _ -> ()))
    b;
  match List.rev b with
  | Ir.SReturn _ :: _ -> !count = 1
  | _ -> !count = 0

and dowhile g res b =
  line g "do {";
  indented g (fun () ->
      List.iter
        (function
          | Ir.SReturn (Some e) ->
              assign g res e;
              line g "break;"
          | s -> stmt g s)
        b);
  line g "} while (0);"

(** Assign an expression to a named variable; array literals are expanded
    into per-component stores on the (private) destination array, and
    array-to-array assignment aliases the destination to the source (C has
    no array assignment; the IR guarantees single assignment for these). *)
and assign g dst (e : Ir.expr) : unit =
  match e with
  | Ir.ArrLit (_, es) ->
      List.iteri
        (fun i x ->
          bol g;
          add_cname g dst;
          add_char g '[';
          add_int g i;
          add g "] = ";
          expr g x;
          eol g ";")
        es
  | Ir.Var src when is_array_name g dst || is_array_name g src ->
      (match Hashtbl.find_opt g.views src with
      | Some entry -> Hashtbl.replace g.views dst entry
      | None -> Hashtbl.replace g.views dst (src, []));
      line_of g "/* "
        (fun () ->
          add_cname g dst;
          add g " aliases ";
          add_cname g src)
        " */"
  | e ->
      line_of g ""
        (fun () ->
          add_cname g dst;
          add g " = ";
          expr g e)
        ";"

and is_array_name g v = Hashtbl.mem g.views v || Hashtbl.mem g.body_aty v

and store g root (full : Ir.expr list) (v : Ir.expr) : unit =
  let aty = Option.value (array_aty g root) ~default:unknown_aty in
  let ndims = List.length aty.Ir.dims in
  let nidx = List.length full in
  let p = placement g root in
  if nidx = ndims then begin
    bol g;
    if p.Ir.vector_width > 1 then
      access g root full (* component select works as lvalue *)
    else element g root aty p full;
    add g " = ";
    expr g v;
    eol g ";"
  end
  else
    (* row store: copy elementwise (or as one vector when vectorized) *)
    match (p.Ir.vector_width > 1 && nidx = ndims - 1,
           List.nth_opt aty.Ir.dims (ndims - 1))
    with
    | true, Some (Ir.DFixed _) ->
        bol g;
        add_root g root;
        add_char g '[';
        flat_index g root aty p ~vector_width:p.Ir.vector_width full;
        add g "] = ";
        row_as_vector g v p;
        eol g ";"
    | _, Some (Ir.DFixed n) when n <= 8 ->
        for c = 0 to n - 1 do
          bol g;
          element g root aty p (full @ [ Ir.Const (Ir.CInt c) ]);
          add g " = ";
          (match v with
          | Ir.ArrLit (_, es) when c < List.length es -> expr g (List.nth es c)
          | v -> expr g (Ir.Load (v, [ Ir.Const (Ir.CInt c) ])));
          eol g ";"
        done
    | _, dim ->
        (* wide or dynamic rows copy with a loop rather than unrolling *)
        line_of g "for (int _row_c = 0; _row_c < "
          (fun () ->
            match dim with
            | Some (Ir.DFixed n) -> add_int g n
            | _ -> add_dim_len g root aty (ndims - 1))
          "; _row_c++) {";
        indented g (fun () ->
            line_of g ""
              (fun () ->
                element g root aty p (full @ [ Ir.Var "%row_c" ]);
                add g " = ";
                (* through expr so view aliases and vector registers resolve *)
                expr g (Ir.Load (v, [ Ir.Var "%row_c" ])))
              ";");
        line g "}"

and row_as_vector g (v : Ir.expr) (p : Ir.placement) : unit =
  let w = p.Ir.vector_width in
  match v with
  | Ir.ArrLit (aty, es) when List.length es = w ->
      add_char g '(';
      add_vec g aty.Ir.elem w;
      add g ")(";
      add_sep g ", " (expr g) es;
      add_char g ')'
  | e ->
      add g "vload";
      add_int g w;
      add g "(0, ";
      expr g e;
      add_char g ')'

and decl g v (t : Ir.ty) (init : Ir.expr option) : unit =
  let name () = add_cname g v in
  (* [<ty> v], the start of a declaration line *)
  let declare ty =
    bol g;
    add g ty;
    add_char g ' ';
    name ()
  in
  (* [[n]<rest>] after a declarator, ending the line *)
  let sized n rest =
    add_char g '[';
    add_int g n;
    add_char g ']';
    eol g rest
  in
  match (t, init) with
  | Ir.TArr aty, Some (Ir.Load (b, idx)) -> (
      (* view declaration *)
      match Access.resolve g.views b idx with
      | Some (root, prefix) ->
          Hashtbl.replace g.views v (root, prefix);
          Hashtbl.replace g.materialized v ();
          let p = placement g root in
          bol g;
          if p.Ir.space = Ir.MImage then
            (* texel view: load the whole texel into a vector register *)
            add g "float4 "
          else if p.Ir.vector_width > 1 then begin
            add_vec g aty.Ir.elem p.Ir.vector_width;
            add_char g ' '
          end
          else begin
            (* pointer into the row *)
            add g (space_qualifier p.Ir.space);
            add g " const ";
            add g (scalar_c aty.Ir.elem);
            add g "* "
          end;
          name ();
          add g " = ";
          access g root prefix;
          eol g ";"
      | None -> line_of g "/* unresolved view " name " */")
  | Ir.TArr _, Some (Ir.Var src) -> (
      (* alias *)
      match Hashtbl.find_opt g.views src with
      | Some entry -> Hashtbl.replace g.views v entry
      | None -> Hashtbl.replace g.views v (src, []))
  | Ir.TArr _, (Some (Ir.NewArr _) | None) when g.out_var = Some v ->
      () (* the result array is the _out kernel parameter *)
  | Ir.TArr aty, None -> (
      (* an array variable bound later (e.g. an inline-block result): a
         small private one, or one filled by an array literal, is a real
         array; others alias their single assignment *)
      match ((placement g v).Ir.space, Ir.static_elem_count aty) with
      | space, Some n
        when space = Ir.MPrivate || Hashtbl.mem g.literal_arrays v ->
          declare (scalar_c aty.Ir.elem);
          sized n ";"
      | _ -> line_of g "/* " name " is bound by its single assignment below */")
  | Ir.TArr aty, Some (Ir.NewArr _) -> (
      let p = placement g v in
      let elem = scalar_c aty.Ir.elem in
      match (p.Ir.space, Ir.static_elem_count aty) with
      | Ir.MPrivate, Some n ->
          declare elem;
          sized n ";"
      | Ir.MLocal, Some n ->
          let n = if p.Ir.padded then n + List.length aty.Ir.dims else n in
          declare ("__local " ^ elem);
          sized n ";"
      | _, Some n ->
          (* a per-thread buffer that exceeded the private threshold: the
             host would allocate a global scratch; textually a C array *)
          declare elem;
          sized n "; /* per-thread spill buffer */"
      | _ ->
          line_of g "/* " name
            ": host-allocated scratch buffer (kernel parameter) */")
  | Ir.TArr aty, Some (Ir.ArrLit (_, es)) ->
      declare (scalar_c aty.Ir.elem);
      add_char g '[';
      add_int g (List.length es);
      add g "] = { ";
      add_sep g ", " (expr g) es;
      eol g " };"
  | Ir.TScalar s, Some e ->
      declare (scalar_c s);
      add g " = ";
      expr g e;
      eol g ";"
  | Ir.TScalar s, None ->
      declare (scalar_c s);
      eol g ";"
  | _, Some e ->
      declare ("/* " ^ Ir.ty_name t ^ " */ int");
      add g " = ";
      expr g e;
      eol g ";"
  | _, None ->
      declare ("/* " ^ Ir.ty_name t);
      eol g " */"

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

(** The printer state for one kernel, with the per-kernel facts every
    emitter reads: placements and parameter types by name (the first
    binding wins, as a list lookup would), and, from one walk of the body,
    the declared array types and the names assigned an array literal. *)
let make_gen (k : Kernel.kernel) placements =
  let first_wins l =
    let t = Hashtbl.create 16 in
    List.iter (fun (n, x) -> if not (Hashtbl.mem t n) then Hashtbl.add t n x) l;
    t
  in
  let body_aty = Hashtbl.create 16 and literal_arrays = Hashtbl.create 8 in
  let walk stmt = List.iter (Ir.iter_stmt ~stmt) in
  (* an inline block is literal-valued when any return in it is *)
  let returns_literal b =
    let found = ref false in
    walk
      (function Ir.SReturn (Some (Ir.ArrLit _)) -> found := true | _ -> ())
      b;
    !found
  in
  walk
    (function
      | Ir.SDecl (v, Ir.TArr a, _) -> Hashtbl.replace body_aty v a
      | Ir.SAssign (Ir.LVar v, Ir.ArrLit _) ->
          Hashtbl.replace literal_arrays v ()
      | Ir.SInlineBlock (v, b) when returns_literal b ->
          Hashtbl.replace literal_arrays v ()
      | _ -> ())
    k.Kernel.k_body;
  {
    b = Buffer.create 4096;
    indent = 0;
    placement_of = first_wins placements;
    param_ty = first_wins k.Kernel.k_params;
    body_aty;
    literal_arrays;
    views = Hashtbl.create 16;
    materialized = Hashtbl.create 16;
    out_var = returned_out_var k;
    in_parfor = false;
  }

(** The bookkeeping struct's fields (Fig 4(b)): the dynamic lengths of the
    array parameters, the scratch buffers and the result. *)
let args_fields g (k : Kernel.kernel) scratch =
  let count = ref 0 in
  let lengths name (aty : Ir.aty) =
    List.iteri
      (fun d dk ->
        if dk = Ir.DDyn then begin
          incr count;
          add g "  int ";
          add_cname g name;
          add g "_len";
          add_int g d;
          add g ";\n"
        end)
      aty.Ir.dims
  in
  List.iter
    (function p, Ir.TArr aty -> lengths p aty | _ -> ())
    k.Kernel.k_params;
  List.iter (fun (p, aty) -> lengths p aty) scratch;
  (match k.Kernel.k_ret with Ir.TArr aty -> lengths "_out" aty | _ -> ());
  if !count = 0 then add g "  int _unused;\n"

let param_decl g (p : string) (t : Ir.ty) : unit =
  match t with
  | Ir.TArr aty -> (
      let pl = placement g p in
      let pointer prefix =
        add g prefix;
        add_vec g aty.Ir.elem pl.Ir.vector_width;
        add g "* restrict ";
        add_cname g p
      in
      match pl.Ir.space with
      | Ir.MImage ->
          add g "__read_only image2d_t ";
          add_cname g p
      | Ir.MConstant -> pointer "__constant "
      | Ir.MLocal ->
          (* staged through a local tile; the global source still comes in *)
          pointer "__global const "
      | _ -> pointer (if aty.Ir.value then "__global const " else "__global "))
  | Ir.TScalar s ->
      add g (scalar_c s);
      add_char g ' ';
      add_cname g p
  | _ -> ()

(** Emit the local-memory staging loop of Fig 5(d) for arrays placed in
    local memory: threads of the work group cooperatively copy a tile and
    barrier before use. *)
let local_staging g placements =
  List.iter
    (fun (name, p) ->
      match (p.Ir.space, Hashtbl.find_opt g.param_ty name) with
      | Ir.MLocal, Some (Ir.TArr aty) ->
          let rowlen =
            match Ir.innermost_fixed aty with Some n -> n | None -> 1
          in
          let stride = if p.Ir.padded then rowlen + 1 else rowlen in
          let elem = scalar_c aty.Ir.elem in
          let tile () =
            add_cname g name;
            add g "_tile"
          in
          let int n () = add_int g n in
          (* one element of the tile, copied from the global source *)
          let copy index =
            line_of g ""
              (fun () ->
                tile ();
                add_char g '[';
                index ();
                add g "] = ((__global const ";
                add g elem;
                add g "*)";
                add_cname g name;
                add g ")[tile_base * ";
                add_int g rowlen)
              " + t];"
          in
          line_of g "/* stage " (fun () -> add_cname g name)
            " through local memory (tile + barrier) */";
          line_of g "__local "
            (fun () ->
              add g elem;
              add_char g ' ';
              tile ();
              add g "[TILE * ";
              add_int g stride)
            "];";
          line g "const int tile_base = 0; /* tile loop elided: whole-array staging */";
          line_of g "for (int t = get_local_id(0); t < TILE * " (int rowlen)
            "; t += get_local_size(0)) {";
          indented g (fun () ->
              if p.Ir.padded then begin
                line_of g "int row = t / " (int rowlen) ";";
                line_of g "int col = t % " (int rowlen) ";";
                copy (fun () ->
                    add g "row * ";
                    add_int g stride;
                    add g " + col")
              end
              else copy (fun () -> add_char g 't'));
          line g "}";
          line g "barrier(CLK_LOCAL_MEM_FENCE);"
      | _ -> ())
    placements

(** Generate the OpenCL source of a kernel under the given placements. *)
let generate (k : Kernel.kernel) (decisions : Memopt.decision list) : string =
  let placements = Memopt.placements decisions in
  let g = make_gen k placements in
  let kname =
    String.map (fun c -> if c = '.' then '_' else c) k.Kernel.k_name
  in
  let struct_name () =
    add g "KArgs_";
    add_cname g kname
  in
  if k.Kernel.k_uses_double then
    add g "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\n";
  let scratch = scratch_buffers k in
  add g "#define TILE ";
  add_int g Kernel.group_size;
  add g "\n\ntypedef struct {\n";
  args_fields g k scratch;
  add g "} ";
  struct_name ();
  add g ";\n\n";
  (* sampler for image arrays *)
  let images = List.filter (fun (_, p) -> p.Ir.space = Ir.MImage) placements in
  List.iter
    (fun (name, _) ->
      add g "__constant sampler_t ";
      add_cname g name;
      add g
        "_smp = CLK_NORMALIZED_COORDS_FALSE | CLK_ADDRESS_CLAMP | \
         CLK_FILTER_NEAREST;\n")
    images;
  if images <> [] then add_char g '\n';
  (* signature *)
  add g "__kernel void ";
  add g kname;
  add g "(\n    ";
  let first = ref true in
  let param f =
    if not !first then add g ",\n    ";
    first := false;
    f ()
  in
  List.iter
    (fun (p, t) ->
      match t with
      | Ir.TArr _ | Ir.TScalar _ -> param (fun () -> param_decl g p t)
      | _ -> ())
    k.Kernel.k_params;
  List.iter
    (fun (p, (aty : Ir.aty)) ->
      param (fun () ->
          add g "__global ";
          add g (scalar_c aty.Ir.elem);
          add g "* restrict ";
          add_cname g p;
          add g
            " /* scratch (per-work-item slices in a real deployment) */"))
    scratch;
  (match k.Kernel.k_ret with
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
      param (fun () ->
          add g "__global ";
          add_vec g aty.Ir.elem pl.Ir.vector_width;
          add g "* restrict _out")
  | Ir.TScalar s ->
      param (fun () ->
          add g "__global ";
          add g (scalar_c s);
          add g "* restrict _out")
  | _ -> ());
  param (fun () ->
      struct_name ();
      add g " args");
  add g ")\n{\n";
  g.indent <- 1;
  local_staging g placements;
  List.iter (stmt g) k.Kernel.k_body;
  add g "}\n";
  Buffer.contents g.b
