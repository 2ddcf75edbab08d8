(** Reference interpreter for the IR — the "bytecode" execution engine.

    Plays the role of the JVM in the paper's evaluation: the end-to-end
    baseline runs whole programs here, and the differential test suite
    compares kernel results from the GPU simulator against this engine.

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

type state = {
  md : Ir.modul;
  statics : (string * string, Value.t ref) Hashtbl.t;
  counters : counters;
  mutable finish_hook :
    state -> Value.task_node list -> int option -> unit;
  mutable print_hook : string -> unit;
}

type frame = {
  vars : (string, Value.t) Hashtbl.t;
  this : Value.obj option;
}

exception Return_exn of Value.t
exception Break_exn
exception Continue_exn

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
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let is_double_scalar = function Ir.SDouble -> true | _ -> false

let rec eval st (fr : frame) (e : Ir.expr) : Value.t =
  let c = st.counters in
  match e with
  | Ir.Const (Ir.CInt i) -> Value.VInt i
  | Ir.Const (Ir.CLong l) -> Value.VLong l
  | Ir.Const (Ir.CFloat f) -> Value.VFloat (Value.f32 f)
  | Ir.Const (Ir.CDouble d) -> Value.VDouble d
  | Ir.Const (Ir.CBool b) -> Value.VInt (if b then 1 else 0)
  | Ir.Var v -> (
      match Hashtbl.find_opt fr.vars v with
      | Some x -> x
      | None -> fail "unbound variable '%s'" v)
  | Ir.Bin (op, s, a, b) ->
      c.alu <- c.alu + 1;
      if is_double_scalar s then c.double_ops <- c.double_ops + 1;
      (match op with Div | Mod -> c.divs <- c.divs + 1 | _ -> ());
      eval_binop op s (eval st fr a) (eval st fr b)
  | Ir.Un (op, s, a) ->
      c.alu <- c.alu + 1;
      eval_unop op s (eval st fr a)
  | Ir.Cast (dst, src, a) ->
      c.alu <- c.alu + 1;
      eval_cast dst src (eval st fr a)
  | Ir.Load (b, idx) ->
      let base = as_arr (eval st fr b) in
      let is = List.map (fun i -> as_int (eval st fr i)) idx in
      c.mem_reads <- c.mem_reads + 1;
      c.bounds_checks <- c.bounds_checks + List.length is;
      (try Value.index base is
       with Value.Bounds m -> fail "array access: %s" m)
  | Ir.Len (a, d) ->
      let arr = as_arr (eval st fr a) in
      if d >= Value.rank arr then fail "length of missing dimension %d" d;
      Value.VInt arr.Value.shape.(d)
  | Ir.Intrinsic (b, s, args) ->
      (match b with
      | B.BSin | B.BCos | B.BTan | B.BExp | B.BLog | B.BPow | B.BAtan2 ->
          c.transcendentals <- c.transcendentals + 1
      | B.BSqrt | B.BRsqrt -> c.sqrts <- c.sqrts + 1
      | _ -> c.alu <- c.alu + 1);
      if is_double_scalar s then c.double_ops <- c.double_ops + 1;
      eval_intrinsic b s (List.map (eval st fr) args) st
  | Ir.CallF (name, args) ->
      c.calls <- c.calls + 1;
      let vargs = List.map (eval st fr) args in
      call_function st name None vargs
  | Ir.CallM (name, recv, args) ->
      c.calls <- c.calls + 1;
      let vrecv = eval st fr recv in
      let obj =
        match vrecv with
        | Value.VObj o -> o
        | v -> fail "instance call on %s" (Value.to_string v)
      in
      let vargs = List.map (eval st fr) args in
      call_function st name (Some obj) vargs
  | Ir.FieldGet (r, f) -> (
      c.field_accesses <- c.field_accesses + 1;
      let obj =
        match eval st fr r with
        | Value.VObj o -> o
        | Value.VUnit -> (
            match fr.this with
            | Some o -> o
            | None -> fail "field access without receiver")
        | v -> fail "field access on %s" (Value.to_string v)
      in
      match Hashtbl.find_opt obj.Value.fields f with
      | Some v -> v
      | None -> fail "unknown field '%s' of %s" f obj.Value.cls)
  | Ir.StaticGet (cls, f) -> (
      c.field_accesses <- c.field_accesses + 1;
      match Hashtbl.find_opt st.statics (cls, f) with
      | Some r -> !r
      | None -> fail "unknown static field %s.%s" cls f)
  | Ir.NewArr (aty, sizes) ->
      let svals = List.map (fun s -> as_int (eval st fr s)) sizes in
      let shape = resolve_shape aty svals in
      let a = Value.make_arr ~is_value:aty.Ir.value aty.Ir.elem shape in
      c.alloc_bytes <- c.alloc_bytes + Value.total_bytes a;
      Value.VArr a
  | Ir.ArrLit (aty, es) ->
      let vs = List.map (eval st fr) es in
      let n = List.length vs in
      (match vs with
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
          Value.VArr a)
  | Ir.NewObj (cls, args) ->
      let vargs = List.map (eval st fr) args in
      Value.VObj (instantiate st cls vargs)
  | Ir.This -> (
      match fr.this with
      | Some o -> Value.VObj o
      | None -> fail "'this' outside an instance method")
  | Ir.RangeE n ->
      let n = as_int (eval st fr n) in
      if n < 0 then fail "Lime.range: negative size %d" n;
      let a = Value.make_arr ~is_value:true Ir.SInt [| n |] in
      (match a.Value.buf with
      | Value.BInt b -> Array.iteri (fun i _ -> b.(i) <- i) b
      | _ -> assert false);
      c.alloc_bytes <- c.alloc_bytes + Value.total_bytes a;
      Value.VArr a
  | Ir.ToValueE a ->
      let arr = as_arr (eval st fr a) in
      let n = Value.elem_count arr.Value.shape in
      c.mem_reads <- c.mem_reads + n;
      c.mem_writes <- c.mem_writes + n;
      c.alloc_bytes <- c.alloc_bytes + Value.total_bytes arr;
      Value.VArr (Value.deep_copy ~is_value:true arr)
  | Ir.TaskE td ->
      let instance =
        match td.Ir.td_ctor with
        | None -> None
        | Some args ->
            let vargs = List.map (eval st fr) args in
            Some (instantiate st td.Ir.td_class vargs)
      in
      Value.VGraph [ { Value.tk_desc = td; tk_instance = instance } ]
  | Ir.ConnectE (a, b) -> (
      match (eval st fr a, eval st fr b) with
      | Value.VGraph x, Value.VGraph y -> Value.VGraph (x @ y)
      | _ -> fail "'=>' on non-task values")

and resolve_shape (aty : Ir.aty) (sizes : int list) : int array =
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
  (match List.assoc_opt cls st.md.Ir.md_field_inits with
  | None -> ()
  | Some inits ->
      let fr = { vars = Hashtbl.create 4; this = Some obj } in
      List.iter
        (fun (f, e) -> Hashtbl.replace obj.Value.fields f (eval st fr e))
        inits);
  (match Ir.find_func st.md (Ir.qualify cls "<init>") with
  | Some ctor -> ignore (invoke st ctor (Some obj) args)
  | None ->
      if args <> [] then fail "class %s has no constructor" cls);
  obj

and call_function st name (this : Value.obj option) (args : Value.t list) :
    Value.t =
  match Ir.find_func st.md name with
  | None -> fail "unknown function %s" name
  | Some f -> invoke st f this args

and invoke st (f : Ir.func) (this : Value.obj option) (args : Value.t list) :
    Value.t =
  if List.length args <> List.length f.Ir.fn_params then
    fail "%s: arity mismatch" f.Ir.fn_name;
  let fr = { vars = Hashtbl.create 16; this } in
  List.iter2
    (fun (p, _) v -> Hashtbl.replace fr.vars p v)
    f.Ir.fn_params args;
  try
    exec_list st fr f.Ir.fn_body;
    Value.VUnit
  with Return_exn v -> v

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

and exec_list st fr stmts = List.iter (exec st fr) stmts

and exec st (fr : frame) (s : Ir.stmt) : unit =
  let c = st.counters in
  match s with
  | Ir.SDecl (v, t, init) ->
      let value =
        match init with Some e -> eval st fr e | None -> default_value t
      in
      Hashtbl.replace fr.vars v value
  | Ir.SAssign (Ir.LVar v, e) -> Hashtbl.replace fr.vars v (eval st fr e)
  | Ir.SAssign (Ir.LField (r, f), e) ->
      c.field_accesses <- c.field_accesses + 1;
      let obj =
        match eval st fr r with
        | Value.VObj o -> o
        | v -> fail "field store on %s" (Value.to_string v)
      in
      Hashtbl.replace obj.Value.fields f (eval st fr e)
  | Ir.SAssign (Ir.LStatic (cls, f), e) -> (
      c.field_accesses <- c.field_accesses + 1;
      match Hashtbl.find_opt st.statics (cls, f) with
      | Some r -> r := eval st fr e
      | None -> fail "unknown static field %s.%s" cls f)
  | Ir.SArrStore (b, idx, v) ->
      let base = as_arr (eval st fr b) in
      let is = List.map (fun i -> as_int (eval st fr i)) idx in
      let value = eval st fr v in
      c.mem_writes <- c.mem_writes + 1;
      c.bounds_checks <- c.bounds_checks + List.length is;
      (try Value.store base is value
       with Value.Bounds m -> fail "array store: %s" m)
  | Ir.SIf (cond, a, b) ->
      c.branches <- c.branches + 1;
      if as_bool (eval st fr cond) then exec_list st fr a
      else exec_list st fr b
  | Ir.SWhile (cond, body) -> (
      try
        while as_bool (eval st fr cond) do
          c.branches <- c.branches + 1;
          try exec_list st fr body with Continue_exn -> ()
        done
      with Break_exn -> ())
  | Ir.SFor (v, lo, hi, body) -> (
      let lo = as_int (eval st fr lo) and hi = as_int (eval st fr hi) in
      try
        for i = lo to hi - 1 do
          c.branches <- c.branches + 1;
          Hashtbl.replace fr.vars v (Value.VInt i);
          try exec_list st fr body with Continue_exn -> ()
        done
      with Break_exn -> ())
  | Ir.SParFor p ->
      (* sequential reference semantics for the data-parallel loop *)
      let n = as_int (eval st fr p.Ir.pf_count) in
      for i = 0 to n - 1 do
        c.branches <- c.branches + 1;
        Hashtbl.replace fr.vars p.Ir.pf_var (Value.VInt i);
        exec_list st fr p.Ir.pf_body
      done
  | Ir.SReduce r ->
      let arr = as_arr (eval st fr r.Ir.rd_arr) in
      let n = Value.length arr in
      if n = 0 then fail "reduction over an empty array";
      c.mem_reads <- c.mem_reads + n;
      c.alu <- c.alu + n;
      let combine acc v =
        match r.Ir.rd_op with
        | B.RO_Binop op -> eval_binop op r.Ir.rd_scalar acc v
        | B.RO_Builtin b -> eval_intrinsic b r.Ir.rd_scalar [ acc; v ] st
        | B.RO_Method (cls, m) ->
            call_function st (Ir.qualify cls m) None [ acc; v ]
      in
      let acc = ref (Value.index arr [ 0 ]) in
      for i = 1 to n - 1 do
        acc := combine !acc (Value.index arr [ i ])
      done;
      Hashtbl.replace fr.vars r.Ir.rd_dst !acc
  | Ir.SInlineBlock (res, body) -> (
      try exec_list st fr body
      with Return_exn v -> Hashtbl.replace fr.vars res v)
  | Ir.SReturn None -> raise (Return_exn Value.VUnit)
  | Ir.SReturn (Some e) -> raise (Return_exn (eval st fr e))
  | Ir.SExpr e -> ignore (eval st fr e)
  | Ir.SBreak -> raise Break_exn
  | Ir.SContinue -> raise Continue_exn
  | Ir.SFinish (g, n) -> (
      let graph =
        match eval st fr g with
        | Value.VGraph ts -> ts
        | v -> fail "finish on %s" (Value.to_string v)
      in
      let iters = Option.map (fun e -> as_int (eval st fr e)) n in
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
  let fr = { vars = Hashtbl.create 4; this = None } in
  List.iter
    (fun (cls, f, e) ->
      match Hashtbl.find_opt st.statics (cls, f) with
      | Some r -> r := eval st fr e
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
