(** Reference interpreter for the IR — the "bytecode" execution engine.

    Plays the role of the JVM in the paper's evaluation: the end-to-end
    baseline runs whole programs here, and the differential test suite
    compares kernel results from the GPU simulator against this engine.

    Each {!Ir.func} is compiled to OCaml closures the first time it is
    called on a {!state}, and the compiled code is cached in that state.
    A call runs on a typed frame: a local whose binding sites all give it
    one scalar type other than [long], and that is bound before every
    read on every path, lives unboxed in a float or an int array; every
    other local has a slot of a [Value.t] array, where an unset slot holds
    a sentinel, so a read before the declaration still fails as an
    unbound variable.  Operators read slots and constants in place rather
    than through a closure, and a float subexpression leaves its result
    in a frame slot of its own instead of returning a boxed float.
    Arguments go straight into the callee's slots, and a function's frames
    are reused from call to call.  Calls resolve to per-state function
    records and statics to their cells when the caller is compiled.
    [return], [break] and [continue] are status codes returned by
    compiled statements, not exceptions.  Operands are evaluated left to
    right, as in Java (JLS §15.7.1).

    The interpreter accumulates {!Counters} modelling the dynamic operation
    mix (ALU ops, memory traffic, transcendental calls, bounds checks,
    allocations).  A host cost model (lib/gpusim) converts the counters into
    a wall-clock estimate with Java-like weights — e.g. strict
    double-precision transcendentals are expensive, array accesses pay a
    bounds check — which is what gives Fig 7 its "faster OpenCL
    transcendentals" shape. *)

open Lime_frontend.Ast
module B = Lime_typecheck.Tast

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Operation counters                                                  *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable alu : int;  (** add/sub/mul/compare/bit ops *)
  mutable divs : int;
  mutable sqrts : int;
  mutable transcendentals : int;  (** sin/cos/tan/exp/log/pow/atan2 *)
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable bounds_checks : int;
  mutable field_accesses : int;
  mutable branches : int;
  mutable calls : int;
  mutable alloc_bytes : int;
  mutable double_ops : int;  (** subset of the above executed in double *)
}

let fresh_counters () =
  {
    alu = 0;
    divs = 0;
    sqrts = 0;
    transcendentals = 0;
    mem_reads = 0;
    mem_writes = 0;
    bounds_checks = 0;
    field_accesses = 0;
    branches = 0;
    calls = 0;
    alloc_bytes = 0;
    double_ops = 0;
  }

let copy_counters c = { c with alu = c.alu }

let diff_counters a b =
  {
    alu = a.alu - b.alu;
    divs = a.divs - b.divs;
    sqrts = a.sqrts - b.sqrts;
    transcendentals = a.transcendentals - b.transcendentals;
    mem_reads = a.mem_reads - b.mem_reads;
    mem_writes = a.mem_writes - b.mem_writes;
    bounds_checks = a.bounds_checks - b.bounds_checks;
    field_accesses = a.field_accesses - b.field_accesses;
    branches = a.branches - b.branches;
    calls = a.calls - b.calls;
    alloc_bytes = a.alloc_bytes - b.alloc_bytes;
    double_ops = a.double_ops - b.double_ops;
  }

(* ------------------------------------------------------------------ *)
(* Interpreter state                                                   *)
(* ------------------------------------------------------------------ *)

(* A call's frame.  [v] holds the receiver in slot 0 ([VObj], or [VUnit]
   in a static call), the value of the last [return] in slot 1 and the
   boxed locals from 2 on; [d] and [n] hold the unboxed float and int
   locals, and [d] also one temporary per float subexpression. *)
type frame = { v : Value.t array; d : float array; n : int array }

let slot_this = 0
let slot_ret = 1

(* What a compiled statement returns: carry on, or leave the enclosing
   loop, iteration or function. *)
let s_next = 0
let s_break = 1
let s_continue = 2
let s_return = 3

(* Where a local lives: a slot of [v], or an unboxed slot of [d] (with
   the scalar that picks [VFloat] or [VDouble]) or of [n]. *)
type loc = Boxed of int | Flt of Ir.scalar * int | Int of int

type layout = {
  locs : (string, loc) Hashtbl.t;
  params : loc array;
  nv : int;  (** boxed slots, receiver and return value included *)
  nd : int;  (** float locals; temporaries are numbered after them *)
  nn : int;
}

type body = {
  run : frame -> int;
  bv : int;  (** frame sizes: [v], [d] (temporaries included), [n] *)
  bd : int;
  bn : int;
  mutable free : frame array;  (** frames of finished calls, for reuse *)
  mutable nfree : int;
}

type fn = {
  fn_ir : Ir.func;
  fn_layout : layout Lazy.t;
  mutable fn_code : body option;  (** once compiled *)
}

type code = {
  fns : (string, fn) Hashtbl.t;  (** by qualified name *)
  field_inits : (string, (string * (frame -> Value.t)) list * int) Hashtbl.t;
      (** compiled instance field initializers and the float slots they
          need, by class *)
}

type state = {
  md : Ir.modul;
  statics : (string * string, Value.t ref) Hashtbl.t;
  counters : counters;
  mutable finish_hook :
    state -> Value.task_node list -> int option -> unit;
  mutable print_hook : string -> unit;
  code : code;
}

let default_value (t : Ir.ty) : Value.t =
  match t with
  | Ir.TScalar (Ir.SFloat) -> Value.VFloat 0.0
  | Ir.TScalar (Ir.SDouble) -> Value.VDouble 0.0
  | Ir.TScalar (Ir.SLong) -> Value.VLong 0L
  | Ir.TScalar _ -> Value.VInt 0
  | _ -> Value.VUnit

(* ------------------------------------------------------------------ *)
(* Scalar operations (with Java / OpenCL numeric semantics)            *)
(* ------------------------------------------------------------------ *)

(* Copies of [f32] and [i32] from [Value]: dune's dev profile compiles
   with -opaque, under which a call to another module's [f32] is never
   inlined and boxes its argument and its result. *)
let[@inline] f32 (x : float) = Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] i32 (x : int) =
  let v = x land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let as_int = function
  | Value.VInt i -> i
  | Value.VLong l -> Int64.to_int l
  | v -> fail "expected an integer, found %s" (Value.to_string v)

let as_float = function
  | Value.VFloat f | Value.VDouble f -> f
  | Value.VInt i -> float_of_int i
  | Value.VLong l -> Int64.to_float l
  | v -> fail "expected a number, found %s" (Value.to_string v)

let as_bool = function
  | Value.VInt i -> i <> 0
  | v -> fail "expected a boolean, found %s" (Value.to_string v)

let as_arr = function
  | Value.VArr a -> a
  | v -> fail "expected an array, found %s" (Value.to_string v)

let as_long = function
  | Value.VLong l -> l
  | Value.VInt i -> Int64.of_int i
  | _ -> fail "long"

let v_false = Value.VInt 0
let v_true = Value.VInt 1
let of_bool b = if b then v_true else v_false

(* a float result of scalar [s]: rounded and boxed as [VFloat] for
   [SFloat], [VDouble] otherwise *)
let box_float s x =
  if s = Ir.SFloat then Value.VFloat (f32 x) else Value.VDouble x

let eval_binop (op : binop) (s : Ir.scalar) (a : Value.t) (b : Value.t) :
    Value.t =
  match s with
  | Ir.SFloat | Ir.SDouble -> (
      let x = as_float a and y = as_float b in
      match op with
      | Add -> box_float s (x +. y)
      | Sub -> box_float s (x -. y)
      | Mul -> box_float s (x *. y)
      | Div -> box_float s (x /. y)
      | Mod -> box_float s (Float.rem x y)
      | Lt -> of_bool (x < y)
      | Le -> of_bool (x <= y)
      | Gt -> of_bool (x > y)
      | Ge -> of_bool (x >= y)
      | Eq -> of_bool (x = y)
      | Ne -> of_bool (x <> y)
      | _ -> fail "invalid float operation %s" (binop_name op))
  | Ir.SLong -> (
      let x = as_long a and y = as_long b in
      let long l = Value.VLong l in
      let open Int64 in
      match op with
      | Add -> long (add x y)
      | Sub -> long (sub x y)
      | Mul -> long (mul x y)
      | Div -> if equal y 0L then fail "division by zero" else long (div x y)
      | Mod -> if equal y 0L then fail "division by zero" else long (rem x y)
      | Lt -> of_bool (compare x y < 0)
      | Le -> of_bool (compare x y <= 0)
      | Gt -> of_bool (compare x y > 0)
      | Ge -> of_bool (compare x y >= 0)
      | Eq -> of_bool (equal x y)
      | Ne -> of_bool (not (equal x y))
      | BitAnd -> long (logand x y)
      | BitOr -> long (logor x y)
      | BitXor -> long (logxor x y)
      | Shl -> long (shift_left x (to_int y land 63))
      | Shr -> long (shift_right x (to_int y land 63))
      | Ushr -> long (shift_right_logical x (to_int y land 63))
      | And | Or -> fail "logical op on long")
  | Ir.SBool -> (
      let x = as_bool a and y = as_bool b in
      match op with
      | And -> of_bool (x && y)
      | Or -> of_bool (x || y)
      | Eq -> of_bool (x = y)
      | Ne -> of_bool (x <> y)
      | _ -> fail "invalid boolean operation %s" (binop_name op))
  | Ir.SInt | Ir.SByte | Ir.SChar -> (
      let x = as_int a and y = as_int b in
      let int i = Value.VInt i in
      match op with
      | Add -> int (i32 (x + y))
      | Sub -> int (i32 (x - y))
      | Mul -> int (i32 (x * y))
      | Div -> if y = 0 then fail "division by zero" else int (i32 (x / y))
      | Mod -> if y = 0 then fail "division by zero" else int (i32 (x mod y))
      | Lt -> of_bool (x < y)
      | Le -> of_bool (x <= y)
      | Gt -> of_bool (x > y)
      | Ge -> of_bool (x >= y)
      | Eq -> of_bool (x = y)
      | Ne -> of_bool (x <> y)
      | BitAnd -> int (x land y)
      | BitOr -> int (x lor y)
      | BitXor -> int (x lxor y)
      | Shl -> int (i32 (x lsl (y land 31)))
      | Shr -> int (x asr (y land 31))
      | Ushr -> int (i32 ((x land 0xFFFFFFFF) lsr (y land 31)))
      | And | Or -> fail "logical op on int")

let long_only = function Value.VLong l -> l | _ -> fail "long"

let eval_unop (op : unop) (s : Ir.scalar) (a : Value.t) : Value.t =
  match (op, s) with
  | Neg, (Ir.SFloat | Ir.SDouble) -> box_float s (-.as_float a)
  | Neg, Ir.SLong -> Value.VLong (Int64.neg (long_only a))
  | Neg, _ -> Value.VInt (i32 (-as_int a))
  | Not, _ -> Value.VInt (if as_bool a then 0 else 1)
  | BitNot, Ir.SLong -> Value.VLong (Int64.lognot (long_only a))
  | BitNot, _ -> Value.VInt (i32 (lnot (as_int a)))

(* the int a float truncates to under a cast *)
let[@inline] trunc f = i32 (int_of_float (Float.of_int (int_of_float f)))

let eval_cast (dst : Ir.scalar) (_src : Ir.scalar) (v : Value.t) : Value.t =
  match dst with
  | Ir.SFloat | Ir.SDouble -> box_float dst (as_float v)
  | Ir.SLong -> (
      match v with
      | Value.VLong l -> Value.VLong l
      | Value.VInt i -> Value.VLong (Int64.of_int i)
      | Value.VFloat f | Value.VDouble f -> Value.VLong (Int64.of_float f)
      | _ -> fail "cast to long")
  | Ir.SInt -> (
      match v with
      | Value.VInt i -> Value.VInt (i32 i)
      | Value.VLong l -> Value.VInt (i32 (Int64.to_int l))
      | Value.VFloat f | Value.VDouble f -> Value.VInt (trunc f)
      | _ -> fail "cast to int")
  | Ir.SByte -> Value.VInt (Value.i8 (as_int v))
  | Ir.SChar -> Value.VInt (Value.u16 (as_int v))
  | Ir.SBool -> Value.VInt (if as_bool v then 1 else 0)

(* The float builtins of one and two arguments; [apply1] and [apply2]
   give their exact results before single-precision rounding. *)
let float_builtin1 = function
  | B.BSqrt | B.BRsqrt | B.BSin | B.BCos | B.BTan | B.BExp | B.BLog
  | B.BFloor | B.BCeil ->
      true
  | _ -> false

let[@inline] apply1 (b : B.builtin) x =
  match b with
  | B.BSqrt -> sqrt x
  | B.BRsqrt -> 1.0 /. sqrt x
  | B.BSin -> sin x
  | B.BCos -> cos x
  | B.BTan -> tan x
  | B.BExp -> exp x
  | B.BLog -> log x
  | B.BFloor -> Float.floor x
  | _ -> Float.ceil x

let[@inline] apply2 (b : B.builtin) x y =
  match b with B.BPow -> x ** y | _ -> atan2 x y

let eval_intrinsic (b : B.builtin) (s : Ir.scalar) (args : Value.t list)
    (st : state) : Value.t =
  match (b, args) with
  | _, [ a ] when float_builtin1 b -> box_float s (apply1 b (as_float a))
  | (B.BPow | B.BAtan2), [ a; c ] ->
      box_float s (apply2 b (as_float a) (as_float c))
  | B.BAbs, [ Value.VInt i ] -> Value.VInt (abs i)
  | B.BAbs, [ Value.VLong l ] -> Value.VLong (Int64.abs l)
  | B.BAbs, [ v ] -> box_float s (Float.abs (as_float v))
  | B.BMin, [ Value.VInt a; Value.VInt c ] -> Value.VInt (min a c)
  | B.BMin, [ Value.VLong a; Value.VLong c ] ->
      Value.VLong (if Int64.compare a c <= 0 then a else c)
  | B.BMin, [ a; c ] -> box_float s (Float.min (as_float a) (as_float c))
  | B.BMax, [ Value.VInt a; Value.VInt c ] -> Value.VInt (max a c)
  | B.BMax, [ Value.VLong a; Value.VLong c ] ->
      Value.VLong (if Int64.compare a c >= 0 then a else c)
  | B.BMax, [ a; c ] -> box_float s (Float.max (as_float a) (as_float c))
  | B.BPrint, [ v ] ->
      st.print_hook (Value.to_string v);
      Value.VUnit
  | (B.BRange | B.BToValue), _ -> fail "internal: range/toValue as intrinsic"
  | _ -> fail "arity"

(* ------------------------------------------------------------------ *)
(* Counting helpers                                                    *)
(* ------------------------------------------------------------------ *)

let int_arith = function
  | Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | Shl | Shr | Ushr ->
      true
  | _ -> false

let float_arith = function Add | Sub | Mul | Div | Mod -> true | _ -> false
let comparison = function Lt | Le | Gt | Ge | Eq | Ne -> true | _ -> false

let alu c = c.alu <- c.alu + 1

let alu_double c =
  c.alu <- c.alu + 1;
  c.double_ops <- c.double_ops + 1

let tick_bin c ~dbl ~div =
  c.alu <- c.alu + 1;
  if dbl then c.double_ops <- c.double_ops + 1;
  if div then c.divs <- c.divs + 1

let intrinsic_kind = function
  | B.BSin | B.BCos | B.BTan | B.BExp | B.BLog | B.BPow | B.BAtan2 ->
      `Transcendental
  | B.BSqrt | B.BRsqrt -> `Sqrt
  | _ -> `Alu

let tick_intrinsic c kind dbl =
  (match kind with
  | `Transcendental -> c.transcendentals <- c.transcendentals + 1
  | `Sqrt -> c.sqrts <- c.sqrts + 1
  | `Alu -> c.alu <- c.alu + 1);
  if dbl then c.double_ops <- c.double_ops + 1

let resolve_shape (aty : Ir.aty) (sizes : int list) : int array =
  let sizes = ref sizes in
  let dim = function
    | Ir.DFixed n -> n
    | Ir.DDyn -> (
        match !sizes with
        | s :: rest ->
            sizes := rest;
            s
        | [] -> fail "missing dimension size in array creation")
  in
  let shape = Array.of_list (List.map dim aty.Ir.dims) in
  Array.iter (fun s -> if s < 0 then fail "negative array size %d" s) shape;
  shape

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* The contents of a boxed slot not yet assigned in this call.  It is
   compared by address only: reading it is an unbound variable. *)
let unset = Value.VObj { Value.cls = "<unset>"; fields = Hashtbl.create 1 }

let unbound v = fail "unbound variable '%s'" v

module S = Set.Make (String)

type kind = KInt | KFloat of Ir.scalar

(* What the binding sites of a name say so far. *)
type verdict = Untyped | Kind of kind | Mixed

let kind_of_ty = function
  | Ir.TScalar ((Ir.SFloat | Ir.SDouble) as s) -> Some (KFloat s)
  | Ir.TScalar (Ir.SInt | Ir.SByte | Ir.SChar | Ir.SBool) -> Some KInt
  | _ -> None

(* A local is unboxed when every binding site that states a type (a
   parameter, a declaration, a loop index, a reduction's destination)
   states the same scalar kind other than [long], and every read of it
   follows a binding on every path; then no read can find its slot
   unassigned, so it needs no sentinel and a reused frame needs no reset.
   Bindings inside an [if] arm, a loop body or an inline block do not
   count after it.  Every other name keeps a boxed slot, so a read before
   its declaration is still an unbound variable. *)
let layout_of (fn : Ir.func) : layout =
  let verdicts = Hashtbl.create 16 and order = ref [] in
  let set v x =
    if not (Hashtbl.mem verdicts v) then order := v :: !order;
    Hashtbl.replace verdicts v x
  in
  let bind v = if not (Hashtbl.mem verdicts v) then set v Untyped in
  let typed v t =
    set v
      (match (kind_of_ty t, Hashtbl.find_opt verdicts v) with
      | Some k, (None | Some Untyped) -> Kind k
      | Some k, Some (Kind k') when k = k' -> Kind k
      | _ -> Mixed)
  in
  let read bound e =
    Ir.iter_expr
      (function Ir.Var v when not (S.mem v bound) -> set v Mixed | _ -> ())
      e
  in
  let int_ty = Ir.TScalar Ir.SInt in
  let rec block bound ss = List.fold_left stmt bound ss
  and nested bound ss = ignore (block bound ss)
  and stmt bound (s : Ir.stmt) =
    match s with
    | Ir.SDecl (v, t, init) ->
        Option.iter (read bound) init;
        typed v t;
        S.add v bound
    | Ir.SAssign (Ir.LVar v, e) ->
        read bound e;
        bind v;
        S.add v bound
    | Ir.SAssign (Ir.LField (r, _), e) ->
        read bound r;
        read bound e;
        bound
    | Ir.SAssign (Ir.LStatic _, e) | Ir.SExpr e | Ir.SReturn (Some e) ->
        read bound e;
        bound
    | Ir.SArrStore (b, idx, x) ->
        List.iter (read bound) ((b :: idx) @ [ x ]);
        bound
    | Ir.SIf (c, a, b) ->
        read bound c;
        nested bound a;
        nested bound b;
        bound
    | Ir.SWhile (c, b) ->
        read bound c;
        nested bound b;
        bound
    | Ir.SFor (v, lo, hi, b) ->
        read bound lo;
        read bound hi;
        typed v int_ty;
        nested (S.add v bound) b;
        bound
    | Ir.SParFor p ->
        read bound p.Ir.pf_count;
        typed p.Ir.pf_var int_ty;
        nested (S.add p.Ir.pf_var bound) p.Ir.pf_body;
        bound
    | Ir.SReduce r ->
        read bound r.Ir.rd_arr;
        typed r.Ir.rd_dst (Ir.TScalar r.Ir.rd_scalar);
        S.add r.Ir.rd_dst bound
    | Ir.SInlineBlock (res, b) ->
        bind res;
        nested bound b;
        bound
    | Ir.SFinish (g, n) ->
        read bound g;
        Option.iter (read bound) n;
        bound
    | Ir.SReturn None | Ir.SBreak | Ir.SContinue -> bound
  in
  List.iter (fun (p, t) -> typed p t) fn.Ir.fn_params;
  nested (S.of_list (List.map fst fn.Ir.fn_params)) fn.Ir.fn_body;
  let nv = ref 2 and nd = ref 0 and nn = ref 0 in
  let next r =
    let k = !r in
    incr r;
    k
  in
  let locs = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Hashtbl.replace locs v
        (match Hashtbl.find verdicts v with
        | Kind (KFloat s) -> Flt (s, next nd)
        | Kind KInt -> Int (next nn)
        | Untyped | Mixed -> Boxed (next nv)))
    (List.rev !order);
  {
    locs;
    params =
      Array.of_list
        (List.map (fun (p, _) -> Hashtbl.find locs p) fn.Ir.fn_params);
    nv = !nv;
    nd = !nd;
    nn = !nn;
  }

let acquire (b : body) =
  if b.nfree = 0 then
    {
      v = Array.make b.bv unset;
      d = Array.make b.bd 0.0;
      n = Array.make b.bn 0;
    }
  else begin
    b.nfree <- b.nfree - 1;
    b.free.(b.nfree)
  end

(* Only the boxed part is reset: an unboxed slot is always written before
   it is read.  A frame whose call raised is never released. *)
let release (b : body) fr =
  Array.fill fr.v 0 b.bv unset;
  if b.nfree = Array.length b.free then begin
    let free = Array.make ((2 * b.nfree) + 1) fr in
    Array.blit b.free 0 free 0 b.nfree;
    b.free <- free
  end;
  b.free.(b.nfree) <- fr;
  b.nfree <- b.nfree + 1

(* Run a call's body on its frame and hand the frame back. *)
let call_body (b : body) fr =
  let r = if b.run fr = s_return then fr.v.(slot_ret) else Value.VUnit in
  release b fr;
  r

(* Store a value in a local, unboxing it for a typed slot. *)
let bind_value fr loc (x : Value.t) =
  match loc with
  | Boxed k -> fr.v.(k) <- x
  | Flt (_, k) ->
      fr.d.(k) <-
        (match x with Value.VFloat y | Value.VDouble y -> y | _ -> as_float x)
  | Int k -> fr.n.(k) <- (match x with Value.VInt i -> i | _ -> as_int x)

(* Bind a loop index. *)
let[@inline] set_index fr loc i =
  match loc with Int k -> fr.n.(k) <- i | _ -> bind_value fr loc (Value.VInt i)

(* A frame for code outside any function: field and static initializers. *)
let init_frame this nd =
  { v = [| this; Value.VUnit |]; d = Array.make nd 0.0; n = [||] }

(* ------------------------------------------------------------------ *)
(* Array accesses                                                      *)
(* ------------------------------------------------------------------ *)

(* The fast paths cover in-bounds cells of rank-1 and rank-2 arrays and
   row views; everything else, errors included, goes through [Value] so
   the messages stay those of [Value.Bounds]. *)
let load_slow a is =
  try Value.index a is with Value.Bounds m -> fail "array access: %s" m

let cell (a : Value.arr) k : Value.t =
  match a.Value.buf with
  | Value.BInt b -> Value.VInt b.(k)
  | Value.BLong b -> Value.VLong b.(k)
  | Value.BFloat b ->
      if a.Value.elem = Ir.SFloat then Value.VFloat b.(k)
      else Value.VDouble b.(k)

(* The flat index of in-bounds cell [i] of a rank-1 array, or -1. *)
let[@inline] flat1 (a : Value.arr) i =
  if Array.length a.Value.shape = 1 && i >= 0 && i < a.Value.shape.(0) then
    a.Value.offset + (i * a.Value.strides.(0))
  else -1

let[@inline] flat2 (a : Value.arr) i j =
  if
    Array.length a.Value.shape = 2
    && i >= 0 && i < a.Value.shape.(0) && j >= 0 && j < a.Value.shape.(1)
  then a.Value.offset + (i * a.Value.strides.(0)) + (j * a.Value.strides.(1))
  else -1

let load1 (a : Value.arr) i : Value.t =
  let k = flat1 a i in
  if k >= 0 then cell a k
  else if i < 0 || Array.length a.Value.shape = 0 || i >= a.Value.shape.(0)
  then load_slow a [ i ]
  else Value.VArr (Value.view a i)

let load2 (a : Value.arr) i j : Value.t =
  let k = flat2 a i j in
  if k >= 0 then cell a k else load_slow a [ i; j ]

let store_slow a is v =
  try Value.store a is v with Value.Bounds m -> fail "array store: %s" m

(* [false] leaves the store to [Value.store] *)
let set_cell (a : Value.arr) k (v : Value.t) =
  match (a.Value.buf, v) with
  | Value.BInt b, Value.VInt x ->
      b.(k) <- x;
      true
  | Value.BFloat b, (Value.VFloat x | Value.VDouble x) ->
      b.(k) <- x;
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Compilation to closures                                             *)
(* ------------------------------------------------------------------ *)

(* A compiled statement: one that always carries on, or one that returns
   a status. *)
type step = Simple of (frame -> unit) | Status of (frame -> int)

(* What a function body compiles against: its locals, and the float slots
   handed out so far (its float locals, then one temporary per float
   subexpression that is not a slot or a constant). *)
type cx = { st : state; locs : (string, loc) Hashtbl.t; mutable fd : int }

let no_locs : (string, loc) Hashtbl.t = Hashtbl.create 1
let init_cx st = { st; locs = no_locs; fd = 0 }

let temp cx =
  let t = cx.fd in
  cx.fd <- t + 1;
  t

(* Operands: a slot or a constant is read in place, through one branch
   of an inlined getter, instead of by calling a closure.  A float
   operand's code leaves its result in its own slot. *)
type iop = ISlot of int | IConst of int | ICode of (frame -> int)
type fop = FSlot of int | FConst of float | FCode of (frame -> unit) * int
type vop =
  | VSlot of string * int
  | VConst of Value.t
  | VCode of (frame -> Value.t)

let[@inline] iget f = function
  | ISlot k -> f.n.(k)
  | IConst i -> i
  | ICode g -> g f

let[@inline] fget f = function
  | FSlot k -> f.d.(k)
  | FConst x -> x
  | FCode (g, k) ->
      g f;
      f.d.(k)

let[@inline] vget f = function
  | VSlot (v, k) ->
      let x = f.v.(k) in
      if x == unset then unbound v else x
  | VConst x -> x
  | VCode g -> g f

let is_int_scalar = function
  | Ir.SInt | Ir.SByte | Ir.SChar | Ir.SBool -> true
  | _ -> false

(* The scalar whose [Value] an expression always evaluates to, when the
   expression shows it: [SFloat] for [VFloat], [SDouble] for [VDouble],
   an int scalar for [VInt].  [compile_expr] hands each such compound
   expression to [float_into], [cond] or [int_code], which handle all of
   them without calling [compile_expr] on it again. *)
let scalar_of cx (e : Ir.expr) : Ir.scalar option =
  match e with
  | Ir.Const (Ir.CInt _) -> Some Ir.SInt
  | Ir.Const (Ir.CBool _) -> Some Ir.SBool
  | Ir.Const (Ir.CFloat _) -> Some Ir.SFloat
  | Ir.Const (Ir.CDouble _) -> Some Ir.SDouble
  | Ir.Var v -> (
      match Hashtbl.find_opt cx.locs v with
      | Some (Flt (s, _)) -> Some s
      | Some (Int _) -> Some Ir.SInt
      | _ -> None)
  | Ir.Bin (op, ((Ir.SFloat | Ir.SDouble) as s), _, _) when float_arith op ->
      Some s
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar), _, _) when int_arith op ->
      Some Ir.SInt
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar | Ir.SFloat | Ir.SDouble), _, _)
    when comparison op ->
      Some Ir.SBool
  | Ir.Un (Neg, ((Ir.SFloat | Ir.SDouble) as s), _) -> Some s
  | Ir.Un ((Neg | BitNot), s, _) when is_int_scalar s -> Some Ir.SInt
  | Ir.Un (Not, _, _) -> Some Ir.SBool
  | Ir.Cast (dst, _, _) when dst <> Ir.SLong -> Some dst
  | Ir.Intrinsic (b, s, [ _ ]) when float_builtin1 b ->
      Some (if s = Ir.SFloat then Ir.SFloat else Ir.SDouble)
  | Ir.Intrinsic ((B.BPow | B.BAtan2), s, [ _; _ ]) ->
      Some (if s = Ir.SFloat then Ir.SFloat else Ir.SDouble)
  | Ir.Len _ -> Some Ir.SInt
  | _ -> None

let const_value = function
  | Ir.CInt i -> Value.VInt i
  | Ir.CLong l -> Value.VLong l
  | Ir.CFloat x -> Value.VFloat (f32 x)
  | Ir.CDouble d -> Value.VDouble d
  | Ir.CBool b -> of_bool b

(* the literal of scalar [s] that [v] is *)
let const_of_value (s : Ir.scalar) (v : Value.t) : Ir.const =
  match (s, v) with
  | Ir.SBool, Value.VInt i -> Ir.CBool (i <> 0)
  | (Ir.SInt | Ir.SByte | Ir.SChar), Value.VInt i -> Ir.CInt i
  | Ir.SLong, Value.VLong l -> Ir.CLong l
  | Ir.SFloat, Value.VFloat x -> Ir.CFloat x
  | Ir.SDouble, Value.VDouble d -> Ir.CDouble d
  | _ -> fail "%s is not a %s literal" (Value.to_string v) (Ir.scalar_name s)

let fold_literal (e : Ir.expr) : Ir.const option =
  let value = const_value in
  match
    match e with
    | Ir.Bin (op, s, Ir.Const a, Ir.Const b) ->
        let result =
          match op with
          | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> Ir.SBool
          | _ -> s
        in
        Some (const_of_value result (eval_binop op s (value a) (value b)))
    | Ir.Un (op, s, Ir.Const a) ->
        let result = if op = Not then Ir.SBool else s in
        Some (const_of_value result (eval_unop op s (value a)))
    | Ir.Cast (dst, src, Ir.Const a) ->
        Some (const_of_value dst (eval_cast dst src (value a)))
    | _ -> None
  with
  | r -> r
  | exception Runtime_error _ -> None

let fn_of st name =
  match Hashtbl.find_opt st.code.fns name with
  | Some _ as r -> r
  | None -> (
      match Ir.find_func st.md name with
      | None -> None
      | Some f ->
          let r =
            { fn_ir = f; fn_layout = lazy (layout_of f); fn_code = None }
          in
          Hashtbl.replace st.code.fns name r;
          Some r)

let rec compile_fn st (r : fn) =
  match r.fn_code with
  | Some b -> b
  | None ->
      let lay = Lazy.force r.fn_layout in
      let cx = { st; locs = lay.locs; fd = lay.nd } in
      let run = compile_block cx r.fn_ir.Ir.fn_body in
      let b =
        { run; bv = lay.nv; bd = cx.fd; bn = lay.nn; free = [||]; nfree = 0 }
      in
      r.fn_code <- Some b;
      b

(* [this] is [VObj o] or [VUnit]; [args] are already evaluated. *)
and invoke st (r : fn) (this : Value.t) (args : Value.t list) : Value.t =
  if List.length args <> List.length r.fn_ir.Ir.fn_params then
    fail "%s: arity mismatch" r.fn_ir.Ir.fn_name;
  let b = compile_fn st r in
  let params = (Lazy.force r.fn_layout).params in
  let fr = acquire b in
  fr.v.(slot_this) <- this;
  List.iteri (fun i x -> bind_value fr params.(i) x) args;
  call_body b fr

and call_function st name (this : Value.obj option) (args : Value.t list) :
    Value.t =
  match fn_of st name with
  | None -> fail "unknown function %s" name
  | Some r ->
      invoke st r
        (match this with Some o -> Value.VObj o | None -> Value.VUnit)
        args

and instantiate st cls (args : Value.t list) : Value.obj =
  let meta =
    match Hashtbl.find_opt st.md.Ir.md_classes cls with
    | Some m -> m
    | None -> fail "unknown class %s" cls
  in
  let obj = { Value.cls; fields = Hashtbl.create 8 } in
  List.iter
    (fun (f, t) -> Hashtbl.replace obj.Value.fields f (default_value t))
    meta.Ir.cm_instance_fields;
  (* field initializers run with [this] bound, before the constructor *)
  let inits, nd =
    match Hashtbl.find_opt st.code.field_inits cls with
    | Some compiled -> compiled
    | None ->
        let cx = init_cx st in
        let inits =
          match List.assoc_opt cls st.md.Ir.md_field_inits with
          | None -> []
          | Some inits ->
              List.map (fun (f, e) -> (f, compile_expr cx e)) inits
        in
        Hashtbl.replace st.code.field_inits cls (inits, cx.fd);
        (inits, cx.fd)
  in
  (match inits with
  | [] -> ()
  | inits ->
      let fr = init_frame (Value.VObj obj) nd in
      List.iter
        (fun (f, e) -> Hashtbl.replace obj.Value.fields f (e fr))
        inits);
  (match fn_of st (Ir.qualify cls "<init>") with
  | Some ctor -> ignore (invoke st ctor (Value.VObj obj) args)
  | None -> if args <> [] then fail "class %s has no constructor" cls);
  obj

(* ---- operands ------------------------------------------------------ *)

(* [int_op], [float_op] and [cond] evaluate like [compile_expr] followed
   by [as_int], [as_float] and [as_bool], without boxing what the
   operators they know produce. *)
and int_op cx (e : Ir.expr) : iop =
  match e with
  | Ir.Const (Ir.CInt i) -> IConst i
  | Ir.Const (Ir.CBool b) -> IConst (if b then 1 else 0)
  | Ir.Var v -> (
      match Hashtbl.find_opt cx.locs v with
      | Some (Int k) -> ISlot k
      | _ -> ICode (int_generic cx e))
  | _ -> ICode (int_code cx e)

and int_generic cx e =
  let ce = compile_expr cx e in
  fun f -> match ce f with Value.VInt i -> i | v -> as_int v

and int_code cx (e : Ir.expr) : frame -> int =
  let c = cx.st.counters in
  match e with
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar), a, b) when int_arith op -> (
      let ia = int_op cx a and ib = int_op cx b in
      match op with
      | Add -> fun f -> alu c; let x = iget f ia in i32 (x + iget f ib)
      | Sub -> fun f -> alu c; let x = iget f ia in i32 (x - iget f ib)
      | Mul -> fun f -> alu c; let x = iget f ia in i32 (x * iget f ib)
      | Div | Mod ->
          let div = op = Div in
          fun f ->
            alu c;
            c.divs <- c.divs + 1;
            let x = iget f ia in
            let y = iget f ib in
            if y = 0 then fail "division by zero"
            else i32 (if div then x / y else x mod y)
      | BitAnd -> fun f -> alu c; let x = iget f ia in x land iget f ib
      | BitOr -> fun f -> alu c; let x = iget f ia in x lor iget f ib
      | BitXor -> fun f -> alu c; let x = iget f ia in x lxor iget f ib
      | Shl ->
          fun f -> alu c; let x = iget f ia in i32 (x lsl (iget f ib land 31))
      | Shr -> fun f -> alu c; let x = iget f ia in x asr (iget f ib land 31)
      | _ ->
          fun f ->
            alu c;
            let x = iget f ia in
            i32 ((x land 0xFFFFFFFF) lsr (iget f ib land 31)))
  | Ir.Bin (op, _, _, _) when comparison op && scalar_of cx e <> None ->
      let g = cond cx e in
      fun f -> if g f then 1 else 0
  | Ir.Un (Neg, s, a) when is_int_scalar s ->
      let ia = int_op cx a in
      fun f -> alu c; i32 (-iget f ia)
  | Ir.Un (BitNot, s, a) when is_int_scalar s ->
      let ia = int_op cx a in
      fun f -> alu c; i32 (lnot (iget f ia))
  | Ir.Un (Not, _, a) ->
      let g = cond cx a in
      fun f -> alu c; if g f then 0 else 1
  (* a cast's operand has the cast's source type *)
  | Ir.Cast (Ir.SInt, (Ir.SFloat | Ir.SDouble), a) ->
      let fa = float_op cx a in
      fun f ->
        alu c;
        let x = fget f fa in
        trunc x
  | Ir.Cast (Ir.SInt, _, a) ->
      let ia = int_op cx a in
      fun f -> alu c; i32 (iget f ia)
  | Ir.Cast (Ir.SByte, _, a) ->
      let ia = int_op cx a in
      fun f -> alu c; Value.i8 (iget f ia)
  | Ir.Cast (Ir.SChar, _, a) ->
      let ia = int_op cx a in
      fun f -> alu c; Value.u16 (iget f ia)
  | Ir.Cast (Ir.SBool, _, a) ->
      let g = cond cx a in
      fun f -> alu c; if g f then 1 else 0
  | Ir.Len (a, d) ->
      let ca = val_op cx a in
      fun f ->
        let arr = as_arr (vget f ca) in
        if d >= Value.rank arr then fail "length of missing dimension %d" d;
        arr.Value.shape.(d)
  | Ir.Load (b, [ i ]) ->
      let cb = val_op cx b and ci = int_op cx i in
      fun f ->
        let base = as_arr (vget f cb) in
        let i = iget f ci in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 1;
        let k = flat1 base i in
        (match base.Value.buf with
        | Value.BInt a when k >= 0 -> a.(k)
        | _ -> as_int (load1 base i))
  | Ir.StaticGet (cls, name) when Hashtbl.mem cx.st.statics (cls, name) ->
      let r = Hashtbl.find cx.st.statics (cls, name) in
      fun _ ->
        c.field_accesses <- c.field_accesses + 1;
        (match !r with Value.VInt i -> i | v -> as_int v)
  | _ -> int_generic cx e

and float_leaf cx (e : Ir.expr) =
  match e with
  | Ir.Const (Ir.CFloat x) -> Some (FConst (f32 x))
  | Ir.Const (Ir.CDouble x) -> Some (FConst x)
  | Ir.Var v -> (
      match Hashtbl.find_opt cx.locs v with
      | Some (Flt (_, k)) -> Some (FSlot k)
      | _ -> None)
  | _ -> None

and float_op cx (e : Ir.expr) : fop =
  match float_leaf cx e with
  | Some op -> op
  | None ->
      let t = temp cx in
      FCode (float_into cx e t, t)

(* Code that leaves [e]'s value, as [as_float] would read it, in float
   slot [t].  Every operand is read before [t] is written, so [t] may be
   a local that [e] reads. *)
and float_into cx (e : Ir.expr) t : frame -> unit =
  let c = cx.st.counters in
  match e with
  | Ir.Bin (op, ((Ir.SFloat | Ir.SDouble) as s), a, b) when float_arith op -> (
      let fa = float_op cx a and fb = float_op cx b in
      let divs () = c.divs <- c.divs + 1 in
      match (op, s) with
      | Add, Ir.SFloat ->
          fun f -> alu c; let x = fget f fa in f.d.(t) <- f32 (x +. fget f fb)
      | Sub, Ir.SFloat ->
          fun f -> alu c; let x = fget f fa in f.d.(t) <- f32 (x -. fget f fb)
      | Mul, Ir.SFloat ->
          fun f -> alu c; let x = fget f fa in f.d.(t) <- f32 (x *. fget f fb)
      | Div, Ir.SFloat ->
          fun f ->
            alu c; divs ();
            let x = fget f fa in
            f.d.(t) <- f32 (x /. fget f fb)
      | Add, _ ->
          fun f -> alu_double c; let x = fget f fa in f.d.(t) <- x +. fget f fb
      | Sub, _ ->
          fun f -> alu_double c; let x = fget f fa in f.d.(t) <- x -. fget f fb
      | Mul, _ ->
          fun f -> alu_double c; let x = fget f fa in f.d.(t) <- x *. fget f fb
      | Div, _ ->
          fun f ->
            alu_double c; divs ();
            let x = fget f fa in
            f.d.(t) <- x /. fget f fb
      | _, Ir.SFloat ->
          fun f ->
            alu c; divs ();
            let x = fget f fa in
            f.d.(t) <- f32 (Float.rem x (fget f fb))
      | _ ->
          fun f ->
            alu_double c; divs ();
            let x = fget f fa in
            f.d.(t) <- Float.rem x (fget f fb))
  | Ir.Intrinsic (b, s, [ a ]) when float_builtin1 b ->
      let fa = float_op cx a in
      let kind = intrinsic_kind b and dbl = s = Ir.SDouble in
      (* operands are let-bound: a float passed straight to an inlined
         function's parameter would be boxed *)
      if s = Ir.SFloat then
        fun f ->
          tick_intrinsic c kind dbl;
          let x = fget f fa in
          f.d.(t) <- f32 (apply1 b x)
      else
        fun f ->
          tick_intrinsic c kind dbl;
          let x = fget f fa in
          f.d.(t) <- apply1 b x
  | Ir.Intrinsic (((B.BPow | B.BAtan2) as b), s, [ a; a' ]) ->
      let fa = float_op cx a and fb = float_op cx a' in
      let dbl = s = Ir.SDouble and single = s = Ir.SFloat in
      fun f ->
        tick_intrinsic c `Transcendental dbl;
        let x = fget f fa in
        let y = fget f fb in
        let r = apply2 b x y in
        f.d.(t) <- (if single then f32 r else r)
  | Ir.Un (Neg, ((Ir.SFloat | Ir.SDouble) as s), a) ->
      let fa = float_op cx a and single = s = Ir.SFloat in
      fun f ->
        alu c;
        let x = -.fget f fa in
        f.d.(t) <- (if single then f32 x else x)
  | Ir.Cast (((Ir.SFloat | Ir.SDouble) as dst), src, a) ->
      let single = dst = Ir.SFloat in
      if is_int_scalar src then
        let ia = int_op cx a in
        fun f ->
          alu c;
          let x = float_of_int (iget f ia) in
          f.d.(t) <- (if single then f32 x else x)
      else
        let fa = float_op cx a in
        fun f ->
          alu c;
          let x = fget f fa in
          f.d.(t) <- (if single then f32 x else x)
  | Ir.Load (b, [ i ]) ->
      let cb = val_op cx b and ci = int_op cx i in
      fun f ->
        let base = as_arr (vget f cb) in
        let i = iget f ci in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 1;
        let k = flat1 base i in
        f.d.(t) <-
          (match base.Value.buf with
          | Value.BFloat a when k >= 0 -> a.(k)
          | _ -> as_float (load1 base i))
  | Ir.Load (b, [ i; j ]) ->
      let cb = val_op cx b in
      let ci = int_op cx i and cj = int_op cx j in
      fun f ->
        let base = as_arr (vget f cb) in
        let i = iget f ci in
        let j = iget f cj in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 2;
        let k = flat2 base i j in
        f.d.(t) <-
          (match base.Value.buf with
          | Value.BFloat a when k >= 0 -> a.(k)
          | _ -> as_float (load2 base i j))
  | Ir.StaticGet (cls, name) when Hashtbl.mem cx.st.statics (cls, name) ->
      let r = Hashtbl.find cx.st.statics (cls, name) in
      fun f ->
        c.field_accesses <- c.field_accesses + 1;
        f.d.(t) <-
          (match !r with
          | Value.VFloat x | Value.VDouble x -> x
          | v -> as_float v)
  | _ -> (
      match float_leaf cx e with
      | Some op -> fun f -> f.d.(t) <- fget f op
      | None ->
          let ce = compile_expr cx e in
          fun f ->
            f.d.(t) <-
              (match ce f with
              | Value.VFloat x | Value.VDouble x -> x
              | v -> as_float v))

and cond cx (e : Ir.expr) : frame -> bool =
  let c = cx.st.counters in
  let generic () =
    let ce = compile_expr cx e in
    fun f -> match ce f with Value.VInt i -> i <> 0 | v -> as_bool v
  in
  match e with
  | Ir.Const (Ir.CBool b) -> fun _ -> b
  | Ir.Var v -> (
      match Hashtbl.find_opt cx.locs v with
      | Some (Int k) -> fun f -> f.n.(k) <> 0
      | _ -> generic ())
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar), a, b) when comparison op -> (
      let ia = int_op cx a and ib = int_op cx b in
      match op with
      | Lt -> fun f -> alu c; let x = iget f ia in x < iget f ib
      | Le -> fun f -> alu c; let x = iget f ia in x <= iget f ib
      | Gt -> fun f -> alu c; let x = iget f ia in x > iget f ib
      | Ge -> fun f -> alu c; let x = iget f ia in x >= iget f ib
      | Eq -> fun f -> alu c; let x = iget f ia in x = iget f ib
      | _ -> fun f -> alu c; let x = iget f ia in x <> iget f ib)
  | Ir.Bin (op, ((Ir.SFloat | Ir.SDouble) as s), a, b) when comparison op -> (
      let fa = float_op cx a and fb = float_op cx b in
      let dbl = s = Ir.SDouble in
      let tick () = if dbl then alu_double c else alu c in
      match op with
      | Lt -> fun f -> tick (); let x = fget f fa in x < fget f fb
      | Le -> fun f -> tick (); let x = fget f fa in x <= fget f fb
      | Gt -> fun f -> tick (); let x = fget f fa in x > fget f fb
      | Ge -> fun f -> tick (); let x = fget f fa in x >= fget f fb
      | Eq -> fun f -> tick (); let x = fget f fa in x = fget f fb
      | _ -> fun f -> tick (); let x = fget f fa in x <> fget f fb)
  | Ir.Un (Not, _, a) ->
      let g = cond cx a in
      fun f -> alu c; not (g f)
  | Ir.Cast (Ir.SBool, _, a) ->
      let g = cond cx a in
      fun f -> alu c; g f
  | _ -> generic ()

and val_op cx (e : Ir.expr) : vop =
  match e with
  | Ir.Const k -> VConst (const_value k)
  | Ir.Var v -> (
      match Hashtbl.find_opt cx.locs v with
      | Some (Boxed k) -> VSlot (v, k)
      | _ -> VCode (compile_expr cx e))
  | _ -> VCode (compile_expr cx e)

(* ---- expressions --------------------------------------------------- *)

and compile_expr cx (e : Ir.expr) : frame -> Value.t =
  let st = cx.st in
  let c = st.counters in
  let ce = compile_expr cx in
  match e with
  | Ir.Const k ->
      let v = const_value k in
      fun _ -> v
  | Ir.Var v -> (
      match Hashtbl.find_opt cx.locs v with
      | None -> fun _ -> unbound v
      | Some (Boxed k) ->
          fun f ->
            let x = f.v.(k) in
            if x == unset then unbound v else x
      | Some (Flt (Ir.SFloat, k)) -> fun f -> Value.VFloat f.d.(k)
      | Some (Flt (_, k)) -> fun f -> Value.VDouble f.d.(k)
      | Some (Int k) -> fun f -> Value.VInt f.n.(k))
  | Ir.Len _ -> boxed cx e Ir.SInt
  | _ when scalar_of cx e <> None -> boxed cx e (Option.get (scalar_of cx e))
  | Ir.Bin (op, s, a, b) ->
      let ca = ce a and cb = ce b in
      let dbl = s = Ir.SDouble and div = op = Div || op = Mod in
      fun f ->
        tick_bin c ~dbl ~div;
        let x = ca f in
        eval_binop op s x (cb f)
  | Ir.Un (op, s, a) ->
      let ca = ce a in
      fun f ->
        c.alu <- c.alu + 1;
        eval_unop op s (ca f)
  | Ir.Cast (dst, src, a) ->
      let ca = ce a in
      fun f ->
        c.alu <- c.alu + 1;
        eval_cast dst src (ca f)
  | Ir.Load (b, [ i ]) ->
      let cb = val_op cx b and ci = int_op cx i in
      fun f ->
        let base = as_arr (vget f cb) in
        let i = iget f ci in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 1;
        load1 base i
  | Ir.Load (b, [ i; j ]) ->
      let cb = val_op cx b in
      let ci = int_op cx i and cj = int_op cx j in
      fun f ->
        let base = as_arr (vget f cb) in
        let i = iget f ci in
        let j = iget f cj in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 2;
        load2 base i j
  | Ir.Load (b, idx) ->
      let cb = val_op cx b and cis = List.map (int_op cx) idx in
      let n = List.length idx in
      fun f ->
        let base = as_arr (vget f cb) in
        let is = List.map (iget f) cis in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + n;
        load_slow base is
  | Ir.Intrinsic (b, s, args) ->
      let cargs = List.map ce args in
      let kind = intrinsic_kind b and dbl = s = Ir.SDouble in
      fun f ->
        tick_intrinsic c kind dbl;
        eval_intrinsic b s (List.map (fun ca -> ca f) cargs) st
  | Ir.CallF (name, args) -> compile_call cx name None args
  | Ir.CallM (name, recv, args) -> compile_call cx name (Some recv) args
  | Ir.FieldGet (r, name) ->
      let cr = ce r in
      fun f ->
        c.field_accesses <- c.field_accesses + 1;
        let obj =
          match cr f with
          | Value.VObj o -> o
          | Value.VUnit -> (
              match f.v.(slot_this) with
              | Value.VObj o -> o
              | _ -> fail "field access without receiver")
          | v -> fail "field access on %s" (Value.to_string v)
        in
        (match Hashtbl.find_opt obj.Value.fields name with
        | Some v -> v
        | None -> fail "unknown field '%s' of %s" name obj.Value.cls)
  | Ir.StaticGet (cls, name) -> (
      match Hashtbl.find_opt st.statics (cls, name) with
      | Some r ->
          fun _ ->
            c.field_accesses <- c.field_accesses + 1;
            !r
      | None ->
          fun _ ->
            c.field_accesses <- c.field_accesses + 1;
            fail "unknown static field %s.%s" cls name)
  | Ir.NewArr (aty, sizes) ->
      let csizes = List.map (int_op cx) sizes in
      fun f ->
        let shape = resolve_shape aty (List.map (iget f) csizes) in
        let a = Value.make_arr ~is_value:aty.Ir.value aty.Ir.elem shape in
        c.alloc_bytes <- c.alloc_bytes + Value.total_bytes a;
        Value.VArr a
  | Ir.ArrLit (aty, es) ->
      let ces = List.map ce es in
      fun f -> array_literal c aty (List.map (fun ce -> ce f) ces)
  | Ir.NewObj (cls, args) ->
      let cargs = List.map ce args in
      fun f ->
        Value.VObj (instantiate st cls (List.map (fun ca -> ca f) cargs))
  | Ir.This ->
      fun f ->
        (match f.v.(slot_this) with
        | Value.VObj _ as v -> v
        | _ -> fail "'this' outside an instance method")
  | Ir.RangeE n ->
      let cn = int_op cx n in
      fun f ->
        let n = iget f cn in
        if n < 0 then fail "Lime.range: negative size %d" n;
        let a = Value.make_arr ~is_value:true Ir.SInt [| n |] in
        (match a.Value.buf with
        | Value.BInt b -> Array.iteri (fun i _ -> b.(i) <- i) b
        | _ -> assert false);
        c.alloc_bytes <- c.alloc_bytes + Value.total_bytes a;
        Value.VArr a
  | Ir.ToValueE a ->
      let ca = ce a in
      fun f ->
        let arr = as_arr (ca f) in
        let n = Value.elem_count arr.Value.shape in
        c.mem_reads <- c.mem_reads + n;
        c.mem_writes <- c.mem_writes + n;
        c.alloc_bytes <- c.alloc_bytes + Value.total_bytes arr;
        Value.VArr (Value.deep_copy ~is_value:true arr)
  | Ir.TaskE td -> (
      let node instance =
        Value.VGraph [ { Value.tk_desc = td; tk_instance = instance } ]
      in
      match td.Ir.td_ctor with
      | None -> fun _ -> node None
      | Some args ->
          let cargs = List.map ce args in
          fun f ->
            let vargs = List.map (fun ca -> ca f) cargs in
            node (Some (instantiate st td.Ir.td_class vargs)))
  | Ir.ConnectE (a, b) ->
      let ca = ce a and cb = ce b in
      fun f ->
        let x = ca f in
        (match (x, cb f) with
        | Value.VGraph x, Value.VGraph y -> Value.VGraph (x @ y)
        | _ -> fail "'=>' on non-task values")

(* A compound expression of known scalar [s], evaluated unboxed and
   boxed once. *)
and boxed cx e s : frame -> Value.t =
  match s with
  | Ir.SFloat | Ir.SDouble ->
      let t = temp cx in
      let g = float_into cx e t in
      if s = Ir.SFloat then fun f -> g f; Value.VFloat f.d.(t)
      else fun f -> g f; Value.VDouble f.d.(t)
  | Ir.SBool ->
      let g = cond cx e in
      fun f -> of_bool (g f)
  | _ ->
      let g = int_code cx e in
      fun f -> Value.VInt (g f)

(* A call: the receiver, then the arguments left to right, straight into
   the callee's slots.  An unknown callee or a wrong arity is not an error
   until the call runs: code that is never reached may hold one. *)
and compile_call cx name recv args : frame -> Value.t =
  let st = cx.st in
  let c = st.counters in
  let crecv =
    match recv with
    | None -> VConst Value.VUnit
    | Some r ->
        let cr = compile_expr cx r in
        VCode
          (fun f ->
            match cr f with
            | Value.VObj _ as v -> v
            | v -> fail "instance call on %s" (Value.to_string v))
  in
  let nargs = List.length args in
  match fn_of st name with
  | Some r when List.length r.fn_ir.Ir.fn_params = nargs ->
      let params = (Lazy.force r.fn_layout).params in
      let put =
        Array.of_list
          (List.mapi
             (fun i a ->
               match params.(i) with
               | Flt (_, k) ->
                   let op = float_op cx a in
                   fun f callee -> callee.d.(k) <- fget f op
               | Int k ->
                   let op = int_op cx a in
                   fun f callee -> callee.n.(k) <- iget f op
               | Boxed k ->
                   let op = val_op cx a in
                   fun f callee -> callee.v.(k) <- vget f op)
             args)
      in
      fun f ->
        c.calls <- c.calls + 1;
        let this = vget f crecv in
        let b = compile_fn st r in
        let callee = acquire b in
        callee.v.(slot_this) <- this;
        for i = 0 to nargs - 1 do
          put.(i) f callee
        done;
        call_body b callee
  | r ->
      let cargs = Array.of_list (List.map (compile_expr cx) args) in
      fun f ->
        c.calls <- c.calls + 1;
        let this = vget f crecv in
        let vargs = Array.to_list (Array.map (fun ca -> ca f) cargs) in
        (match r with
        | None -> fail "unknown function %s" name
        | Some r -> invoke st r this vargs)

and array_literal c (aty : Ir.aty) (vs : Value.t list) : Value.t =
  let n = List.length vs in
  match vs with
  | Value.VArr first :: _ ->
      let shape = Array.append [| n |] first.Value.shape in
      let a = Value.make_arr ~is_value:aty.Ir.value aty.Ir.elem shape in
      c.alloc_bytes <- c.alloc_bytes + Value.total_bytes a;
      List.iteri (fun i v -> Value.store a [ i ] v) vs;
      Value.VArr a
  | _ ->
      let a = Value.make_arr ~is_value:aty.Ir.value aty.Ir.elem [| n |] in
      c.alloc_bytes <- c.alloc_bytes + Value.total_bytes a;
      List.iteri
        (fun i v ->
          c.mem_writes <- c.mem_writes + 1;
          Value.store a [ i ] v)
        vs;
      Value.VArr a

(* ---- statements ---------------------------------------------------- *)

and compile_block cx (stmts : Ir.stmt list) : frame -> int =
  let steps = List.map (compile_stmt cx) stmts in
  let simple =
    List.filter_map (function Simple g -> Some g | Status _ -> None) steps
  in
  match steps with
  | [ Status s ] -> s
  | _ when List.length simple = List.length steps ->
      let gs = Array.of_list simple in
      let n = Array.length gs in
      fun f ->
        for i = 0 to n - 1 do
          gs.(i) f
        done;
        s_next
  | _ ->
      let steps = Array.of_list steps in
      let n = Array.length steps in
      fun f ->
        let r = ref s_next and i = ref 0 in
        while !r = s_next && !i < n do
          (match steps.(!i) with Simple g -> g f | Status g -> r := g f);
          incr i
        done;
        !r

(* Code that stores [e]'s value in local [v]. *)
and assign cx v (e : Ir.expr) : frame -> unit =
  match Hashtbl.find cx.locs v with
  | Boxed k ->
      let ce = compile_expr cx e in
      fun f -> f.v.(k) <- ce f
  | Flt (_, k) -> float_into cx e k
  | Int k -> (
      match int_op cx e with
      | ICode g -> fun f -> f.n.(k) <- g f
      | op -> fun f -> f.n.(k) <- iget f op)

and compile_stmt cx (s : Ir.stmt) : step =
  let st = cx.st in
  let c = st.counters in
  let ce = compile_expr cx in
  match s with
  | Ir.SDecl (v, t, init) -> (
      match init with
      | Some e -> Simple (assign cx v e)
      | None ->
          let loc = Hashtbl.find cx.locs v and d = default_value t in
          Simple (fun f -> bind_value f loc d))
  | Ir.SAssign (Ir.LVar v, e) -> Simple (assign cx v e)
  | Ir.SAssign (Ir.LField (r, name), e) ->
      let cr = ce r and ce = ce e in
      Simple (fun f ->
        c.field_accesses <- c.field_accesses + 1;
        let obj =
          match cr f with
          | Value.VObj o -> o
          | v -> fail "field store on %s" (Value.to_string v)
        in
        Hashtbl.replace obj.Value.fields name (ce f))
  | Ir.SAssign (Ir.LStatic (cls, name), e) -> (
      let ce = ce e in
      match Hashtbl.find_opt st.statics (cls, name) with
      | Some r ->
          Simple
            (fun f ->
              c.field_accesses <- c.field_accesses + 1;
              r := ce f)
      | None ->
          Simple
            (fun _ ->
              c.field_accesses <- c.field_accesses + 1;
              fail "unknown static field %s.%s" cls name))
  | Ir.SArrStore (b, ([ i ] | [ i; _ ] as idx), x) -> (
      (* rank 1 or 2: [k] is the cell's flat index, or -1 for [store_slow] *)
      let two = List.length idx = 2 in
      let cb = val_op cx b and ci = int_op cx i in
      let cj = int_op cx (List.nth idx (List.length idx - 1)) in
      let nidx = List.length idx in
      let is i j = if two then [ i; j ] else [ i ] in
      match scalar_of cx x with
      | Some ((Ir.SFloat | Ir.SDouble) as s) ->
          let fx = float_op cx x in
          Simple (fun f ->
            let base = as_arr (vget f cb) in
            let i = iget f ci in
            let j = if two then iget f cj else 0 in
            let y = fget f fx in
            c.mem_writes <- c.mem_writes + 1;
            c.bounds_checks <- c.bounds_checks + nidx;
            let k = if two then flat2 base i j else flat1 base i in
            (match base.Value.buf with
            | Value.BFloat a when k >= 0 -> a.(k) <- y
            | _ -> store_slow base (is i j) (box_float s y)))
      | Some _ ->
          let ix = int_op cx x in
          Simple (fun f ->
            let base = as_arr (vget f cb) in
            let i = iget f ci in
            let j = if two then iget f cj else 0 in
            let y = iget f ix in
            c.mem_writes <- c.mem_writes + 1;
            c.bounds_checks <- c.bounds_checks + nidx;
            let k = if two then flat2 base i j else flat1 base i in
            (match base.Value.buf with
            | Value.BInt a when k >= 0 -> a.(k) <- y
            | _ -> store_slow base (is i j) (Value.VInt y)))
      | None ->
          let cv = ce x in
          Simple (fun f ->
            let base = as_arr (vget f cb) in
            let i = iget f ci in
            let j = if two then iget f cj else 0 in
            let value = cv f in
            c.mem_writes <- c.mem_writes + 1;
            c.bounds_checks <- c.bounds_checks + nidx;
            let k = if two then flat2 base i j else flat1 base i in
            if k < 0 || not (set_cell base k value) then
              store_slow base (is i j) value))
  | Ir.SArrStore (b, idx, v) ->
      let cb = val_op cx b and cis = List.map (int_op cx) idx and cv = ce v in
      let n = List.length idx in
      Simple (fun f ->
        let base = as_arr (vget f cb) in
        let is = List.map (iget f) cis in
        let value = cv f in
        c.mem_writes <- c.mem_writes + 1;
        c.bounds_checks <- c.bounds_checks + n;
        store_slow base is value)
  | Ir.SIf (e, a, b) ->
      let cc = cond cx e in
      let ca = compile_block cx a and cb = compile_block cx b in
      Status (fun f ->
        c.branches <- c.branches + 1;
        if cc f then ca f else cb f)
  | Ir.SWhile (e, body) ->
      let cc = cond cx e and cb = compile_block cx body in
      Status (fun f ->
        let out = ref (-1) in
        while !out < 0 do
          if cc f then begin
            c.branches <- c.branches + 1;
            let r = cb f in
            if r = s_break then out := s_next
            else if r = s_return then out := s_return
          end
          else out := s_next
        done;
        !out)
  | Ir.SFor (v, lo, hi, body) ->
      let loc = Hashtbl.find cx.locs v in
      let ilo = int_op cx lo and ihi = int_op cx hi in
      let cb = compile_block cx body in
      Status (fun f ->
        let lo = iget f ilo in
        let hi = iget f ihi in
        let i = ref lo and out = ref (-1) in
        while !out < 0 do
          if !i >= hi then out := s_next
          else begin
            c.branches <- c.branches + 1;
            set_index f loc !i;
            let r = cb f in
            if r = s_break then out := s_next
            else if r = s_return then out := s_return;
            incr i
          end
        done;
        !out)
  | Ir.SParFor p ->
      (* sequential reference semantics for the data-parallel loop *)
      let loc = Hashtbl.find cx.locs p.Ir.pf_var in
      let cn = int_op cx p.Ir.pf_count in
      let cb = compile_block cx p.Ir.pf_body in
      Status (fun f ->
        let n = iget f cn in
        let i = ref 0 and out = ref s_next in
        while !out = s_next && !i < n do
          c.branches <- c.branches + 1;
          set_index f loc !i;
          out := cb f;
          incr i
        done;
        !out)
  | Ir.SReduce r ->
      let loc = Hashtbl.find cx.locs r.Ir.rd_dst and ca = ce r.Ir.rd_arr in
      let s = r.Ir.rd_scalar in
      let combine =
        match r.Ir.rd_op with
        | B.RO_Binop op -> fun acc v -> eval_binop op s acc v
        | B.RO_Builtin b -> fun acc v -> eval_intrinsic b s [ acc; v ] st
        | B.RO_Method (cls, m) -> (
            let name = Ir.qualify cls m in
            match fn_of st name with
            | None -> fun _ _ -> fail "unknown function %s" name
            | Some fn -> fun acc v -> invoke st fn Value.VUnit [ acc; v ])
      in
      Simple (fun f ->
        let arr = as_arr (ca f) in
        let n = Value.length arr in
        if n = 0 then fail "reduction over an empty array";
        c.mem_reads <- c.mem_reads + n;
        c.alu <- c.alu + n;
        let acc = ref (load1 arr 0) in
        for i = 1 to n - 1 do
          acc := combine !acc (load1 arr i)
        done;
        bind_value f loc !acc)
  | Ir.SInlineBlock (res, body) ->
      let loc = Hashtbl.find cx.locs res and cb = compile_block cx body in
      Status (fun f ->
        let r = cb f in
        if r = s_return then begin
          bind_value f loc f.v.(slot_ret);
          s_next
        end
        else r)
  | Ir.SReturn None ->
      Status (fun f ->
        f.v.(slot_ret) <- Value.VUnit;
        s_return)
  | Ir.SReturn (Some e) ->
      let ce = ce e in
      Status (fun f ->
        f.v.(slot_ret) <- ce f;
        s_return)
  | Ir.SExpr e ->
      let ce = ce e in
      Simple (fun f -> ignore (ce f))
  | Ir.SBreak -> Status (fun _ -> s_break)
  | Ir.SContinue -> Status (fun _ -> s_continue)
  | Ir.SFinish (g, n) ->
      let cg = ce g and cn = Option.map (int_op cx) n in
      Simple (fun f ->
        let graph =
          match cg f with
          | Value.VGraph ts -> ts
          | v -> fail "finish on %s" (Value.to_string v)
        in
        let iters = Option.map (iget f) cn in
        st.finish_hook st graph iters)

(* ------------------------------------------------------------------ *)
(* State construction and entry points                                 *)
(* ------------------------------------------------------------------ *)

let create (md : Ir.modul) : state =
  let st =
    {
      md;
      statics = Hashtbl.create 16;
      counters = fresh_counters ();
      finish_hook =
        (fun _ _ _ ->
          fail "finish(): no task-graph runtime attached (use Lime_runtime)");
      print_hook = print_endline;
      code = { fns = Hashtbl.create 16; field_inits = Hashtbl.create 4 };
    }
  in
  (* register every static field with its default, then run initializers *)
  Hashtbl.iter
    (fun _ (cm : Ir.class_meta) ->
      List.iter
        (fun (f, t, _) ->
          Hashtbl.replace st.statics (cm.Ir.cm_name, f) (ref (default_value t)))
        cm.Ir.cm_static_fields)
    md.Ir.md_classes;
  List.iter
    (fun (cls, f, e) ->
      match Hashtbl.find_opt st.statics (cls, f) with
      | Some r ->
          let cx = init_cx st in
          let g = compile_expr cx e in
          r := g (init_frame Value.VUnit cx.fd)
      | None -> fail "internal: missing static %s.%s" cls f)
    md.Ir.md_static_inits;
  st

(** Call [Class.method] with the given values. *)
let run st ~cls ~meth (args : Value.t list) : Value.t =
  call_function st (Ir.qualify cls meth) None args

(** Call an instance method on a fresh instance. *)
let run_instance st ~cls ~ctor_args ~meth (args : Value.t list) : Value.t =
  let obj = instantiate st cls ctor_args in
  call_function st (Ir.qualify cls meth) (Some obj) args
