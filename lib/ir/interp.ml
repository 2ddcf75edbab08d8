(** Reference interpreter for the IR — the "bytecode" execution engine.

    Plays the role of the JVM in the paper's evaluation: the end-to-end
    baseline runs whole programs here, and the differential test suite
    compares kernel results from the GPU simulator against this engine.

    Each {!Ir.func} is compiled to OCaml closures the first time it is
    called on a {!state}, and the compiled code is cached in that state.
    Every local name of a function gets one slot of a flat per-call array
    (the function's single scope); an unset slot holds a sentinel, so a
    read before the declaration still fails as an unbound variable.  Calls
    resolve to per-state function records and statics to their cells when
    the caller is compiled.  [return], [break] and [continue] are status
    codes returned by compiled statements, not exceptions.  Operands are
    evaluated left to right, as in Java (JLS §15.7.1).

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

let add_counters a b =
  a.alu <- a.alu + b.alu;
  a.divs <- a.divs + b.divs;
  a.sqrts <- a.sqrts + b.sqrts;
  a.transcendentals <- a.transcendentals + b.transcendentals;
  a.mem_reads <- a.mem_reads + b.mem_reads;
  a.mem_writes <- a.mem_writes + b.mem_writes;
  a.bounds_checks <- a.bounds_checks + b.bounds_checks;
  a.field_accesses <- a.field_accesses + b.field_accesses;
  a.branches <- a.branches + b.branches;
  a.calls <- a.calls + b.calls;
  a.alloc_bytes <- a.alloc_bytes + b.alloc_bytes;
  a.double_ops <- a.double_ops + b.double_ops

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

(* A call's locals: slot 0 holds the receiver ([VObj], or [VUnit] in a
   static call), slot 1 the value of the last [return], and every local
   name of the function one slot from 2 on, its parameters first. *)
type slots = Value.t array

let slot_this = 0
let slot_ret = 1

(* What a compiled statement returns: carry on, or leave the enclosing
   loop, iteration or function. *)
let s_next = 0
let s_break = 1
let s_continue = 2
let s_return = 3

type fn = {
  fn_ir : Ir.func;
  mutable fn_code : (int * (slots -> int)) option;
      (** slot count and body, once compiled *)
}

type code = {
  fns : (string, fn) Hashtbl.t;  (** by qualified name *)
  field_inits : (string, (string * (slots -> Value.t)) list) Hashtbl.t;
      (** compiled instance field initializers, by class *)
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

let eval_binop (op : binop) (s : Ir.scalar) (a : Value.t) (b : Value.t) :
    Value.t =
  let open Value in
  match s with
  | Ir.SFloat | Ir.SDouble ->
      let x = as_float a and y = as_float b in
      let wrap r = if s = Ir.SFloat then VFloat (f32 r) else VDouble r in
      (match op with
      | Add -> wrap (x +. y)
      | Sub -> wrap (x -. y)
      | Mul -> wrap (x *. y)
      | Div -> wrap (x /. y)
      | Mod -> wrap (Float.rem x y)
      | Lt -> VInt (if x < y then 1 else 0)
      | Le -> VInt (if x <= y then 1 else 0)
      | Gt -> VInt (if x > y then 1 else 0)
      | Ge -> VInt (if x >= y then 1 else 0)
      | Eq -> VInt (if x = y then 1 else 0)
      | Ne -> VInt (if x <> y then 1 else 0)
      | _ -> fail "invalid float operation %s" (binop_name op))
  | Ir.SLong ->
      let x =
        match a with VLong l -> l | VInt i -> Int64.of_int i | _ -> fail "long"
      and y =
        match b with VLong l -> l | VInt i -> Int64.of_int i | _ -> fail "long"
      in
      let open Int64 in
      (match op with
      | Add -> VLong (add x y)
      | Sub -> VLong (sub x y)
      | Mul -> VLong (mul x y)
      | Div ->
          if equal y 0L then fail "division by zero" else VLong (div x y)
      | Mod ->
          if equal y 0L then fail "division by zero" else VLong (rem x y)
      | Lt -> VInt (if compare x y < 0 then 1 else 0)
      | Le -> VInt (if compare x y <= 0 then 1 else 0)
      | Gt -> VInt (if compare x y > 0 then 1 else 0)
      | Ge -> VInt (if compare x y >= 0 then 1 else 0)
      | Eq -> VInt (if equal x y then 1 else 0)
      | Ne -> VInt (if equal x y then 0 else 1)
      | BitAnd -> VLong (logand x y)
      | BitOr -> VLong (logor x y)
      | BitXor -> VLong (logxor x y)
      | Shl -> VLong (shift_left x (to_int y land 63))
      | Shr -> VLong (shift_right x (to_int y land 63))
      | Ushr -> VLong (shift_right_logical x (to_int y land 63))
      | And | Or -> fail "logical op on long")
  | Ir.SBool ->
      let x = as_bool a and y = as_bool b in
      (match op with
      | And -> VInt (if x && y then 1 else 0)
      | Or -> VInt (if x || y then 1 else 0)
      | Eq -> VInt (if x = y then 1 else 0)
      | Ne -> VInt (if x <> y then 1 else 0)
      | _ -> fail "invalid boolean operation %s" (binop_name op))
  | Ir.SInt | Ir.SByte | Ir.SChar ->
      let x = as_int a and y = as_int b in
      (match op with
      | Add -> VInt (i32 (x + y))
      | Sub -> VInt (i32 (x - y))
      | Mul -> VInt (i32 (x * y))
      | Div -> if y = 0 then fail "division by zero" else VInt (i32 (x / y))
      | Mod -> if y = 0 then fail "division by zero" else VInt (i32 (x mod y))
      | Lt -> VInt (if x < y then 1 else 0)
      | Le -> VInt (if x <= y then 1 else 0)
      | Gt -> VInt (if x > y then 1 else 0)
      | Ge -> VInt (if x >= y then 1 else 0)
      | Eq -> VInt (if x = y then 1 else 0)
      | Ne -> VInt (if x <> y then 1 else 0)
      | BitAnd -> VInt (x land y)
      | BitOr -> VInt (x lor y)
      | BitXor -> VInt (x lxor y)
      | Shl -> VInt (i32 (x lsl (y land 31)))
      | Shr -> VInt (x asr (y land 31))
      | Ushr -> VInt (i32 ((x land 0xFFFFFFFF) lsr (y land 31)))
      | And | Or -> fail "logical op on int")

let eval_unop (op : unop) (s : Ir.scalar) (a : Value.t) : Value.t =
  let open Value in
  match (op, s) with
  | Neg, Ir.SFloat -> VFloat (f32 (-.as_float a))
  | Neg, Ir.SDouble -> VDouble (-.as_float a)
  | Neg, Ir.SLong ->
      VLong (Int64.neg (match a with VLong l -> l | _ -> fail "long"))
  | Neg, _ -> VInt (i32 (-as_int a))
  | Not, _ -> VInt (if as_bool a then 0 else 1)
  | BitNot, Ir.SLong ->
      VLong (Int64.lognot (match a with VLong l -> l | _ -> fail "long"))
  | BitNot, _ -> VInt (i32 (lnot (as_int a)))

let eval_cast (dst : Ir.scalar) (_src : Ir.scalar) (v : Value.t) : Value.t =
  let open Value in
  match dst with
  | Ir.SFloat -> VFloat (f32 (as_float v))
  | Ir.SDouble -> VDouble (as_float v)
  | Ir.SLong -> (
      match v with
      | VLong l -> VLong l
      | VInt i -> VLong (Int64.of_int i)
      | VFloat f | VDouble f -> VLong (Int64.of_float f)
      | _ -> fail "cast to long")
  | Ir.SInt -> (
      match v with
      | VInt i -> VInt (i32 i)
      | VLong l -> VInt (i32 (Int64.to_int l))
      | VFloat f | VDouble f ->
          VInt (i32 (int_of_float (Float.of_int (int_of_float f))))
      | _ -> fail "cast to int")
  | Ir.SByte -> VInt (i8 (as_int v))
  | Ir.SChar -> VInt (u16 (as_int v))
  | Ir.SBool -> VInt (if as_bool v then 1 else 0)

let eval_intrinsic (b : B.builtin) (s : Ir.scalar) (args : Value.t list)
    (st : state) : Value.t =
  let open Value in
  let wrap r = if s = Ir.SFloat then VFloat (f32 r) else VDouble r in
  let f1 g = match args with [ a ] -> wrap (g (as_float a)) | _ -> fail "arity" in
  let f2 g =
    match args with
    | [ a; b ] -> wrap (g (as_float a) (as_float b))
    | _ -> fail "arity"
  in
  match b with
  | B.BSqrt -> f1 sqrt
  | B.BSin -> f1 sin
  | B.BCos -> f1 cos
  | B.BTan -> f1 tan
  | B.BExp -> f1 exp
  | B.BLog -> f1 log
  | B.BFloor -> f1 Float.floor
  | B.BCeil -> f1 Float.ceil
  | B.BRsqrt -> f1 (fun x -> 1.0 /. sqrt x)
  | B.BPow -> f2 ( ** )
  | B.BAtan2 -> f2 atan2
  | B.BAbs -> (
      match (args, s) with
      | [ VInt i ], _ -> VInt (abs i)
      | [ VLong l ], _ -> VLong (Int64.abs l)
      | [ v ], Ir.SFloat -> VFloat (f32 (Float.abs (as_float v)))
      | [ v ], _ -> VDouble (Float.abs (as_float v))
      | _ -> fail "arity")
  | B.BMin -> (
      match (args, s) with
      | [ VInt a; VInt b ], _ -> VInt (min a b)
      | [ VLong a; VLong b ], _ -> VLong (if Int64.compare a b <= 0 then a else b)
      | [ a; b ], Ir.SFloat -> VFloat (f32 (Float.min (as_float a) (as_float b)))
      | [ a; b ], _ -> VDouble (Float.min (as_float a) (as_float b))
      | _ -> fail "arity")
  | B.BMax -> (
      match (args, s) with
      | [ VInt a; VInt b ], _ -> VInt (max a b)
      | [ VLong a; VLong b ], _ -> VLong (if Int64.compare a b >= 0 then a else b)
      | [ a; b ], Ir.SFloat -> VFloat (f32 (Float.max (as_float a) (as_float b)))
      | [ a; b ], _ -> VDouble (Float.max (as_float a) (as_float b))
      | _ -> fail "arity")
  | B.BPrint ->
      (match args with
      | [ v ] -> st.print_hook (Value.to_string v)
      | _ -> fail "arity");
      VUnit
  | B.BRange | B.BToValue -> fail "internal: range/toValue as intrinsic"

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
(* Compilation to closures                                             *)
(* ------------------------------------------------------------------ *)

(* The contents of a slot not yet assigned in this call.  It is compared
   by address only: reading it is an unbound variable. *)
let unset = Value.VObj { Value.cls = "<unset>"; fields = Hashtbl.create 1 }

let unbound v = fail "unbound variable '%s'" v
let v_false = Value.VInt 0
let v_true = Value.VInt 1
let of_bool b = if b then v_true else v_false

(* Slot numbers of every name a function body binds. *)
let scope_of (params : string list) (body : Ir.stmt list) :
    (string, int) Hashtbl.t =
  let sc = Hashtbl.create 16 in
  let bind v =
    if not (Hashtbl.mem sc v) then Hashtbl.add sc v (2 + Hashtbl.length sc)
  in
  List.iter bind params;
  let stmt = function
    | Ir.SDecl (v, _, _) | Ir.SAssign (Ir.LVar v, _) | Ir.SFor (v, _, _, _)
    | Ir.SInlineBlock (v, _) ->
        bind v
    | Ir.SParFor p -> bind p.Ir.pf_var
    | Ir.SReduce r -> bind r.Ir.rd_dst
    | _ -> ()
  in
  List.iter (Ir.iter_stmt ~stmt ~expr:ignore) body;
  sc

let checked name (v : Value.t) = if v == unset then unbound name else v

(* Array accesses.  The fast paths cover in-bounds cells of rank-1 and
   rank-2 arrays and row views; everything else, errors included, goes
   through [Value] so the messages stay those of [Value.Bounds]. *)
let load_slow a is =
  try Value.index a is with Value.Bounds m -> fail "array access: %s" m

let cell (a : Value.arr) k : Value.t =
  match a.Value.buf with
  | Value.BInt b -> Value.VInt b.(k)
  | Value.BLong b -> Value.VLong b.(k)
  | Value.BFloat b ->
      if a.Value.elem = Ir.SFloat then Value.VFloat b.(k)
      else Value.VDouble b.(k)

let load1 (a : Value.arr) i : Value.t =
  let open Value in
  if i < 0 || Array.length a.shape = 0 || i >= a.shape.(0) then
    load_slow a [ i ]
  else if Array.length a.shape > 1 then VArr (view a i)
  else cell a (a.offset + (i * a.strides.(0)))

let in_bounds2 (a : Value.arr) i j =
  let open Value in
  Array.length a.shape = 2
  && i >= 0 && i < a.shape.(0) && j >= 0 && j < a.shape.(1)

let load2 (a : Value.arr) i j : Value.t =
  let open Value in
  if in_bounds2 a i j then
    cell a (a.offset + (i * a.strides.(0)) + (j * a.strides.(1)))
  else load_slow a [ i; j ]

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

let store1 (a : Value.arr) i (v : Value.t) =
  let open Value in
  if
    i < 0
    || Array.length a.shape <> 1
    || i >= a.shape.(0)
    || not (set_cell a (a.offset + (i * a.strides.(0))) v)
  then store_slow a [ i ] v

let store2 (a : Value.arr) i j (v : Value.t) =
  let open Value in
  if
    not
      (in_bounds2 a i j
      && set_cell a (a.offset + (i * a.strides.(0)) + (j * a.strides.(1))) v)
  then store_slow a [ i; j ] v

let fn_of st name =
  match Hashtbl.find_opt st.code.fns name with
  | Some _ as r -> r
  | None -> (
      match Ir.find_func st.md name with
      | None -> None
      | Some f ->
          let r = { fn_ir = f; fn_code = None } in
          Hashtbl.replace st.code.fns name r;
          Some r)

let run_body (body : slots -> int) (f : slots) =
  if body f = s_return then f.(slot_ret) else Value.VUnit

let rec compile_fn st (r : fn) =
  match r.fn_code with
  | Some code -> code
  | None ->
      let f = r.fn_ir in
      let sc = scope_of (List.map fst f.Ir.fn_params) f.Ir.fn_body in
      let code = (2 + Hashtbl.length sc, compile_block st sc f.Ir.fn_body) in
      r.fn_code <- Some code;
      code

(* [this] is [VObj o] or [VUnit]; [args] are already evaluated. *)
and invoke st (r : fn) (this : Value.t) (args : Value.t list) : Value.t =
  if List.length args <> List.length r.fn_ir.Ir.fn_params then
    fail "%s: arity mismatch" r.fn_ir.Ir.fn_name;
  let n, body = compile_fn st r in
  let f = Array.make n unset in
  f.(slot_this) <- this;
  List.iteri (fun i v -> f.(2 + i) <- v) args;
  run_body body f

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
  let inits =
    match Hashtbl.find_opt st.code.field_inits cls with
    | Some inits -> inits
    | None ->
        let sc = Hashtbl.create 1 in
        let inits =
          match List.assoc_opt cls st.md.Ir.md_field_inits with
          | None -> []
          | Some inits ->
              List.map (fun (f, e) -> (f, compile_expr st sc e)) inits
        in
        Hashtbl.replace st.code.field_inits cls inits;
        inits
  in
  (match inits with
  | [] -> ()
  | inits ->
      let fr = [| Value.VObj obj; Value.VUnit |] in
      List.iter
        (fun (f, e) -> Hashtbl.replace obj.Value.fields f (e fr))
        inits);
  (match fn_of st (Ir.qualify cls "<init>") with
  | Some ctor -> ignore (invoke st ctor (Value.VObj obj) args)
  | None -> if args <> [] then fail "class %s has no constructor" cls);
  obj

(* ---- expressions --------------------------------------------------- *)

and compile_expr st sc (e : Ir.expr) : slots -> Value.t =
  let c = st.counters in
  let ce = compile_expr st sc in
  match e with
  | Ir.Const k ->
      let v =
        match k with
        | Ir.CInt i -> Value.VInt i
        | Ir.CLong l -> Value.VLong l
        | Ir.CFloat x -> Value.VFloat (Value.f32 x)
        | Ir.CDouble d -> Value.VDouble d
        | Ir.CBool b -> of_bool b
      in
      fun _ -> v
  | Ir.Var v -> (
      match Hashtbl.find_opt sc v with
      | None -> fun _ -> unbound v
      | Some k ->
          fun f ->
            let x = f.(k) in
            if x == unset then unbound v else x)
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar), _, _)
    when int_arith op ->
      let g = compile_int st sc e in
      fun f -> Value.VInt (g f)
  | Ir.Bin (op, Ir.SFloat, _, _) when float_arith op ->
      let g = compile_float st sc e in
      fun f -> Value.VFloat (g f)
  | Ir.Bin (op, Ir.SDouble, _, _) when float_arith op ->
      let g = compile_float st sc e in
      fun f -> Value.VDouble (g f)
  | Ir.Bin (op, s, a, b) -> (
      match s with
      | (Ir.SInt | Ir.SByte | Ir.SChar | Ir.SFloat | Ir.SDouble)
        when comparison op ->
          let g = compile_cond st sc e in
          fun f -> of_bool (g f)
      | _ ->
          let ca = ce a and cb = ce b in
          let dbl = s = Ir.SDouble and div = op = Div || op = Mod in
          fun f ->
            tick_bin c ~dbl ~div;
            let x = ca f in
            eval_binop op s x (cb f))
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
      let cb = ce b and ci = compile_int st sc i in
      fun f ->
        let base = as_arr (cb f) in
        let i = ci f in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 1;
        load1 base i
  | Ir.Load (b, [ i; j ]) ->
      let cb = ce b in
      let ci = compile_int st sc i and cj = compile_int st sc j in
      fun f ->
        let base = as_arr (cb f) in
        let i = ci f in
        let j = cj f in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 2;
        load2 base i j
  | Ir.Load (b, idx) ->
      let cb = ce b and cis = List.map (compile_int st sc) idx in
      let n = List.length idx in
      fun f ->
        let base = as_arr (cb f) in
        let is = List.map (fun ci -> ci f) cis in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + n;
        load_slow base is
  | Ir.Len _ ->
      let g = compile_int st sc e in
      fun f -> Value.VInt (g f)
  | Ir.Intrinsic ((B.BSqrt | B.BRsqrt), s, [ _ ]) ->
      let g = compile_float st sc e in
      if s = Ir.SFloat then fun f -> Value.VFloat (g f)
      else fun f -> Value.VDouble (g f)
  | Ir.Intrinsic (b, s, args) ->
      let cargs = List.map ce args in
      let kind = intrinsic_kind b and dbl = s = Ir.SDouble in
      fun f ->
        tick_intrinsic c kind dbl;
        eval_intrinsic b s (List.map (fun ca -> ca f) cargs) st
  | Ir.CallF (name, args) -> compile_call st sc name None args
  | Ir.CallM (name, recv, args) -> compile_call st sc name (Some recv) args
  | Ir.FieldGet (r, name) ->
      let cr = ce r in
      fun f ->
        c.field_accesses <- c.field_accesses + 1;
        let obj =
          match cr f with
          | Value.VObj o -> o
          | Value.VUnit -> (
              match f.(slot_this) with
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
      let csizes = List.map (compile_int st sc) sizes in
      fun f ->
        let shape = resolve_shape aty (List.map (fun cs -> cs f) csizes) in
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
        (match f.(slot_this) with
        | Value.VObj _ as v -> v
        | _ -> fail "'this' outside an instance method")
  | Ir.RangeE n ->
      let cn = compile_int st sc n in
      fun f ->
        let n = cn f in
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

(* A call: the receiver, then the arguments left to right, straight into
   the callee's slots.  An unknown callee or a wrong arity is not an error
   until the call runs: code that is never reached may hold one. *)
and compile_call st sc name recv args : slots -> Value.t =
  let c = st.counters in
  let crecv =
    match recv with
    | None -> fun _ -> Value.VUnit
    | Some r ->
        let cr = compile_expr st sc r in
        fun f ->
          (match cr f with
          | Value.VObj _ as v -> v
          | v -> fail "instance call on %s" (Value.to_string v))
  in
  let cargs = Array.of_list (List.map (compile_expr st sc) args) in
  let nargs = Array.length cargs in
  match fn_of st name with
  | Some r when List.length r.fn_ir.Ir.fn_params = nargs ->
      fun f ->
        c.calls <- c.calls + 1;
        let this = crecv f in
        let n, body = compile_fn st r in
        let callee = Array.make n unset in
        callee.(slot_this) <- this;
        for i = 0 to nargs - 1 do
          callee.(2 + i) <- cargs.(i) f
        done;
        run_body body callee
  | r ->
      fun f ->
        c.calls <- c.calls + 1;
        let this = crecv f in
        let vargs = Array.to_list (Array.map (fun ca -> ca f) cargs) in
        (match r with
        | None -> fail "unknown function %s" name
        | Some r -> invoke st r this vargs)

(* [compile_int], [compile_float] and [compile_cond] are [compile_expr]
   followed by [as_int], [as_float] and [as_bool]; for the operators they
   know they skip boxing the intermediate value. *)
and compile_int st sc (e : Ir.expr) : slots -> int =
  let c = st.counters in
  match e with
  | Ir.Const (Ir.CInt i) -> fun _ -> i
  | Ir.Var v -> (
      match Hashtbl.find_opt sc v with
      | None -> fun _ -> unbound v
      | Some k ->
          fun f ->
            (match f.(k) with Value.VInt i -> i | x -> as_int (checked v x)))
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar), a, b) when int_arith op -> (
      let ia = compile_int st sc a and ib = compile_int st sc b in
      let open Value in
      match op with
      | Add -> fun f -> alu c; let x = ia f in i32 (x + ib f)
      | Sub -> fun f -> alu c; let x = ia f in i32 (x - ib f)
      | Mul -> fun f -> alu c; let x = ia f in i32 (x * ib f)
      | Div | Mod ->
          let g = if op = Div then ( / ) else ( mod ) in
          fun f ->
            alu c;
            c.divs <- c.divs + 1;
            let x = ia f in
            let y = ib f in
            if y = 0 then fail "division by zero" else i32 (g x y)
      | BitAnd -> fun f -> alu c; let x = ia f in x land ib f
      | BitOr -> fun f -> alu c; let x = ia f in x lor ib f
      | BitXor -> fun f -> alu c; let x = ia f in x lxor ib f
      | Shl -> fun f -> alu c; let x = ia f in i32 (x lsl (ib f land 31))
      | Shr -> fun f -> alu c; let x = ia f in x asr (ib f land 31)
      | _ ->
          fun f ->
            alu c;
            let x = ia f in
            i32 ((x land 0xFFFFFFFF) lsr (ib f land 31)))
  | Ir.Len (a, d) ->
      let ca = compile_expr st sc a in
      fun f ->
        let arr = as_arr (ca f) in
        if d >= Value.rank arr then fail "length of missing dimension %d" d;
        arr.Value.shape.(d)
  | _ -> (
      let ce = compile_expr st sc e in
      fun f -> match ce f with Value.VInt i -> i | v -> as_int v)

and compile_float st sc (e : Ir.expr) : slots -> float =
  let c = st.counters in
  match e with
  | Ir.Const (Ir.CFloat x) ->
      let x = Value.f32 x in
      fun _ -> x
  | Ir.Const (Ir.CDouble x) -> fun _ -> x
  | Ir.Var v -> (
      match Hashtbl.find_opt sc v with
      | None -> fun _ -> unbound v
      | Some k ->
          fun f ->
            (match f.(k) with
            | Value.VFloat x | Value.VDouble x -> x
            | x -> as_float (checked v x)))
  | Ir.Bin (op, (Ir.SFloat | Ir.SDouble as s), a, b) when float_arith op -> (
      let fa = compile_float st sc a and fb = compile_float st sc b in
      let divs () = c.divs <- c.divs + 1 in
      let open Value in
      match (op, s) with
      | Add, Ir.SFloat -> fun f -> alu c; let x = fa f in f32 (x +. fb f)
      | Sub, Ir.SFloat -> fun f -> alu c; let x = fa f in f32 (x -. fb f)
      | Mul, Ir.SFloat -> fun f -> alu c; let x = fa f in f32 (x *. fb f)
      | Div, Ir.SFloat ->
          fun f -> alu c; divs (); let x = fa f in f32 (x /. fb f)
      | Add, _ -> fun f -> alu_double c; let x = fa f in x +. fb f
      | Sub, _ -> fun f -> alu_double c; let x = fa f in x -. fb f
      | Mul, _ -> fun f -> alu_double c; let x = fa f in x *. fb f
      | Div, _ -> fun f -> alu_double c; divs (); let x = fa f in x /. fb f
      | _, Ir.SFloat ->
          fun f -> alu c; divs (); let x = fa f in f32 (Float.rem x (fb f))
      | _ -> fun f -> alu_double c; divs (); let x = fa f in Float.rem x (fb f))
  | Ir.Intrinsic ((B.BSqrt | B.BRsqrt) as b, s, [ a ]) -> (
      let fa = compile_float st sc a in
      let tick () =
        c.sqrts <- c.sqrts + 1;
        if s = Ir.SDouble then c.double_ops <- c.double_ops + 1
      in
      match (b, s) with
      | B.BSqrt, Ir.SFloat -> fun f -> tick (); Value.f32 (sqrt (fa f))
      | B.BSqrt, _ -> fun f -> tick (); sqrt (fa f)
      | _, Ir.SFloat -> fun f -> tick (); Value.f32 (1.0 /. sqrt (fa f))
      | _ -> fun f -> tick (); 1.0 /. sqrt (fa f))
  | Ir.Load (b, [ i ]) ->
      let cb = compile_expr st sc b and ci = compile_int st sc i in
      fun f ->
        let base = as_arr (cb f) in
        let i = ci f in
        c.mem_reads <- c.mem_reads + 1;
        c.bounds_checks <- c.bounds_checks + 1;
        (match base with
        | { Value.buf = Value.BFloat a; shape = [| n |]; _ }
          when i >= 0 && i < n ->
            a.(base.Value.offset + (i * base.Value.strides.(0)))
        | _ -> as_float (load1 base i))
  | _ -> (
      let ce = compile_expr st sc e in
      fun f ->
        match ce f with
        | Value.VFloat x | Value.VDouble x -> x
        | v -> as_float v)

and compile_cond st sc (e : Ir.expr) : slots -> bool =
  let c = st.counters in
  match e with
  | Ir.Const (Ir.CBool b) -> fun _ -> b
  | Ir.Bin (op, (Ir.SInt | Ir.SByte | Ir.SChar), a, b) when comparison op -> (
      let ia = compile_int st sc a and ib = compile_int st sc b in
      match op with
      | Lt -> fun f -> alu c; let x = ia f in x < ib f
      | Le -> fun f -> alu c; let x = ia f in x <= ib f
      | Gt -> fun f -> alu c; let x = ia f in x > ib f
      | Ge -> fun f -> alu c; let x = ia f in x >= ib f
      | Eq -> fun f -> alu c; let x = ia f in x = ib f
      | _ -> fun f -> alu c; let x = ia f in x <> ib f)
  | Ir.Bin (op, (Ir.SFloat | Ir.SDouble as s), a, b) when comparison op -> (
      let fa = compile_float st sc a and fb = compile_float st sc b in
      let dbl = s = Ir.SDouble in
      let tick () = if dbl then alu_double c else alu c in
      match op with
      | Lt -> fun f -> tick (); let x = fa f in x < fb f
      | Le -> fun f -> tick (); let x = fa f in x <= fb f
      | Gt -> fun f -> tick (); let x = fa f in x > fb f
      | Ge -> fun f -> tick (); let x = fa f in x >= fb f
      | Eq -> fun f -> tick (); let x = fa f in x = fb f
      | _ -> fun f -> tick (); let x = fa f in x <> fb f)
  | _ -> (
      let ce = compile_expr st sc e in
      fun f -> match ce f with Value.VInt i -> i <> 0 | v -> as_bool v)

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

and compile_block st sc (stmts : Ir.stmt list) : slots -> int =
  match List.map (compile_stmt st sc) stmts with
  | [] -> fun _ -> s_next
  | [ s ] -> s
  | [ a; b ] -> fun f -> let r = a f in if r <> s_next then r else b f
  | ss ->
      let ss = Array.of_list ss in
      let n = Array.length ss in
      fun f ->
        let r = ref s_next and i = ref 0 in
        while !r = s_next && !i < n do
          r := ss.(!i) f;
          incr i
        done;
        !r

and compile_stmt st sc (s : Ir.stmt) : slots -> int =
  let c = st.counters in
  let ce = compile_expr st sc in
  let slot v = Hashtbl.find sc v in
  match s with
  | Ir.SDecl (v, t, init) -> (
      let k = slot v in
      match init with
      | Some e ->
          let ce = ce e in
          fun f ->
            f.(k) <- ce f;
            s_next
      | None ->
          let d = default_value t in
          fun f ->
            f.(k) <- d;
            s_next)
  | Ir.SAssign (Ir.LVar v, e) ->
      let k = slot v and ce = ce e in
      fun f ->
        f.(k) <- ce f;
        s_next
  | Ir.SAssign (Ir.LField (r, name), e) ->
      let cr = ce r and ce = ce e in
      fun f ->
        c.field_accesses <- c.field_accesses + 1;
        let obj =
          match cr f with
          | Value.VObj o -> o
          | v -> fail "field store on %s" (Value.to_string v)
        in
        Hashtbl.replace obj.Value.fields name (ce f);
        s_next
  | Ir.SAssign (Ir.LStatic (cls, name), e) -> (
      let ce = ce e in
      match Hashtbl.find_opt st.statics (cls, name) with
      | Some r ->
          fun f ->
            c.field_accesses <- c.field_accesses + 1;
            r := ce f;
            s_next
      | None ->
          fun _ ->
            c.field_accesses <- c.field_accesses + 1;
            fail "unknown static field %s.%s" cls name)
  | Ir.SArrStore (b, [ i ], v) ->
      let cb = ce b and ci = compile_int st sc i and cv = ce v in
      fun f ->
        let base = as_arr (cb f) in
        let i = ci f in
        let value = cv f in
        c.mem_writes <- c.mem_writes + 1;
        c.bounds_checks <- c.bounds_checks + 1;
        store1 base i value;
        s_next
  | Ir.SArrStore (b, [ i; j ], v) ->
      let cb = ce b and cv = ce v in
      let ci = compile_int st sc i and cj = compile_int st sc j in
      fun f ->
        let base = as_arr (cb f) in
        let i = ci f in
        let j = cj f in
        let value = cv f in
        c.mem_writes <- c.mem_writes + 1;
        c.bounds_checks <- c.bounds_checks + 2;
        store2 base i j value;
        s_next
  | Ir.SArrStore (b, idx, v) ->
      let cb = ce b and cis = List.map (compile_int st sc) idx and cv = ce v in
      let n = List.length idx in
      fun f ->
        let base = as_arr (cb f) in
        let is = List.map (fun ci -> ci f) cis in
        let value = cv f in
        c.mem_writes <- c.mem_writes + 1;
        c.bounds_checks <- c.bounds_checks + n;
        store_slow base is value;
        s_next
  | Ir.SIf (cond, a, b) ->
      let cc = compile_cond st sc cond in
      let ca = compile_block st sc a and cb = compile_block st sc b in
      fun f ->
        c.branches <- c.branches + 1;
        if cc f then ca f else cb f
  | Ir.SWhile (cond, body) ->
      let cc = compile_cond st sc cond and cb = compile_block st sc body in
      fun f ->
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
        !out
  | Ir.SFor (v, lo, hi, body) ->
      let k = slot v in
      let ilo = compile_int st sc lo and ihi = compile_int st sc hi in
      let cb = compile_block st sc body in
      fun f ->
        let lo = ilo f in
        let hi = ihi f in
        let i = ref lo and out = ref (-1) in
        while !out < 0 do
          if !i >= hi then out := s_next
          else begin
            c.branches <- c.branches + 1;
            f.(k) <- Value.VInt !i;
            let r = cb f in
            if r = s_break then out := s_next
            else if r = s_return then out := s_return;
            incr i
          end
        done;
        !out
  | Ir.SParFor p ->
      (* sequential reference semantics for the data-parallel loop *)
      let k = slot p.Ir.pf_var and cn = compile_int st sc p.Ir.pf_count in
      let cb = compile_block st sc p.Ir.pf_body in
      fun f ->
        let n = cn f in
        let i = ref 0 and out = ref s_next in
        while !out = s_next && !i < n do
          c.branches <- c.branches + 1;
          f.(k) <- Value.VInt !i;
          out := cb f;
          incr i
        done;
        !out
  | Ir.SReduce r ->
      let k = slot r.Ir.rd_dst and ca = ce r.Ir.rd_arr in
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
      fun f ->
        let arr = as_arr (ca f) in
        let n = Value.length arr in
        if n = 0 then fail "reduction over an empty array";
        c.mem_reads <- c.mem_reads + n;
        c.alu <- c.alu + n;
        let acc = ref (load1 arr 0) in
        for i = 1 to n - 1 do
          acc := combine !acc (load1 arr i)
        done;
        f.(k) <- !acc;
        s_next
  | Ir.SInlineBlock (res, body) ->
      let k = slot res and cb = compile_block st sc body in
      fun f ->
        let r = cb f in
        if r = s_return then begin
          f.(k) <- f.(slot_ret);
          s_next
        end
        else r
  | Ir.SReturn None ->
      fun f ->
        f.(slot_ret) <- Value.VUnit;
        s_return
  | Ir.SReturn (Some e) ->
      let ce = ce e in
      fun f ->
        f.(slot_ret) <- ce f;
        s_return
  | Ir.SExpr e ->
      let ce = ce e in
      fun f ->
        ignore (ce f);
        s_next
  | Ir.SBreak -> fun _ -> s_break
  | Ir.SContinue -> fun _ -> s_continue
  | Ir.SFinish (g, n) ->
      let cg = ce g and cn = Option.map (compile_int st sc) n in
      fun f ->
        let graph =
          match cg f with
          | Value.VGraph ts -> ts
          | v -> fail "finish on %s" (Value.to_string v)
        in
        let iters = Option.map (fun cn -> cn f) cn in
        st.finish_hook st graph iters;
        s_next

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
  let sc = Hashtbl.create 1 and fr = [| Value.VUnit; Value.VUnit |] in
  List.iter
    (fun (cls, f, e) ->
      match Hashtbl.find_opt st.statics (cls, f) with
      | Some r -> r := compile_expr st sc e fr
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
