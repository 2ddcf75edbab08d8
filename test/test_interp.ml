(* Unit tests for the reference interpreter: Java numeric semantics (32-bit
   wraparound, unsigned shift, byte narrowing, single-precision rounding),
   arrays and views, objects, control flow, evaluation order, and counters
   pinned against a golden table. *)

module Ir = Lime_ir.Ir
module V = Lime_ir.Value
module Interp = Lime_ir.Interp
module Check = Lime_typecheck.Check
module Lower = Lime_ir.Lower

let run_fn src ~meth args =
  let md = Lower.lower_program (Check.check_string src) in
  let st = Interp.create md in
  (Interp.run st ~cls:"C" ~meth args, st)

let run1 src ~meth args = fst (run_fn src ~meth args)

let vint = function
  | V.VInt i -> i
  | v -> Alcotest.failf "expected int, got %s" (V.to_string v)

let vfloat = function
  | V.VFloat f | V.VDouble f -> f
  | v -> Alcotest.failf "expected float, got %s" (V.to_string v)

let runtime_error f =
  match f () with
  | v -> Alcotest.failf "expected a runtime error, got %s" (V.to_string v)
  | exception Interp.Runtime_error m -> m

let test_int32_wraparound () =
  let v =
    run1 "class C { static int f(int x) { return x * 1103515245 + 12345; } }"
      ~meth:"f" [ V.VInt 987654321 ]
  in
  (* Java semantics: (987654321 * 1103515245 + 12345) as int32 *)
  let expected =
    Int32.to_int
      (Int32.add
         (Int32.mul (Int32.of_int 987654321) (Int32.of_int 1103515245))
         (Int32.of_int 12345))
  in
  Alcotest.(check int) "wraps like Java" expected (vint v)

let test_ushr () =
  let v =
    run1 "class C { static int f(int x) { return x >>> 16; } }" ~meth:"f"
      [ V.VInt (-1) ]
  in
  Alcotest.(check int) "-1 >>> 16" 65535 (vint v)

let test_byte_narrowing () =
  let v =
    run1 "class C { static byte f(int x) { return (byte) x; } }" ~meth:"f"
      [ V.VInt 200 ]
  in
  Alcotest.(check int) "200 narrows to -56" (-56) (vint v)

let test_single_precision () =
  (* float arithmetic rounds to 32 bits after each op *)
  let v =
    run1 "class C { static float f(float a, float b) { return a + b; } }"
      ~meth:"f"
      [ V.VFloat (V.f32 0.1); V.VFloat (V.f32 0.2) ]
  in
  Alcotest.(check (float 0.0)) "f32 rounding" (V.f32 (V.f32 0.1 +. V.f32 0.2))
    (vfloat v)

let test_integer_division () =
  let v = run1 "class C { static int f(int a, int b) { return a / b; } }"
      ~meth:"f" [ V.VInt 7; V.VInt 2 ] in
  Alcotest.(check int) "7/2" 3 (vint v);
  match
    Lime_support.Diag.protect (fun () ->
        run1 "class C { static int f(int a) { return a / 0; } }" ~meth:"f"
          [ V.VInt 1 ])
  with
  | Ok _ -> Alcotest.fail "expected division by zero"
  | Error _ -> ()
  | exception Interp.Runtime_error _ -> ()

let test_long_ops () =
  let v =
    run1
      "class C { static long f(int a) { return ((long) a << 32) | (long) a; \
       } }"
      ~meth:"f" [ V.VInt 3 ]
  in
  Alcotest.(check bool) "long shift/or" true
    (v = V.VLong (Int64.logor (Int64.shift_left 3L 32) 3L))

let test_math_builtins () =
  let v =
    run1 "class C { static double f(double x) { return Math.sqrt(x); } }"
      ~meth:"f" [ V.VDouble 9.0 ]
  in
  Alcotest.(check (float 1e-12)) "sqrt" 3.0 (vfloat v);
  let v =
    run1 "class C { static int f(int a, int b) { return Math.max(a, b); } }"
      ~meth:"f" [ V.VInt 2; V.VInt 5 ]
  in
  Alcotest.(check int) "max" 5 (vint v)

let test_arrays_views () =
  let src =
    {|class C {
  static float f(float[[][4]] m) {
    float[[4]] row = m[1];
    return row[2];
  }
}|}
  in
  let m = V.of_float_matrix 3 4 (Array.init 12 float_of_int) in
  let v = run1 src ~meth:"f" [ V.VArr m ] in
  Alcotest.(check (float 0.0)) "view element" 6.0 (vfloat v)

(* out-of-bounds accesses fail with [Value.Bounds]'s message, whichever
   path the access takes *)
let test_bounds_check () =
  let src =
    {|class C {
  static float load(float[[]] xs, int i) { return xs[i]; }
  static float load2(float[[][4]] m, int i, int j) { return m[i][j]; }
  static int store(int n, int i) {
    int[] a = new int[n];
    a[i] = 1;
    return a[0];
  }
}|}
  in
  let md = Lower.lower_program (Check.check_string src) in
  let call meth args () = Interp.run (Interp.create md) ~cls:"C" ~meth args in
  let xs = V.VArr (V.of_float_array [| 1.0; 2.0 |]) in
  let m = V.VArr (V.of_float_matrix 3 4 (Array.make 12 0.0)) in
  Alcotest.(check string) "load above"
    "array access: index 10 out of bounds for dimension 0 (size 2)"
    (runtime_error (call "load" [ xs; V.VInt 10 ]));
  Alcotest.(check string) "load below"
    "array access: index -1 out of bounds for dimension 0 (size 2)"
    (runtime_error (call "load" [ xs; V.VInt (-1) ]));
  Alcotest.(check string) "row index"
    "array access: index 3 out of bounds for dimension 0 (size 3)"
    (runtime_error (call "load2" [ m; V.VInt 3; V.VInt 0 ]));
  Alcotest.(check string) "column index"
    "array access: index 4 out of bounds for dimension 0 (size 4)"
    (runtime_error (call "load2" [ m; V.VInt 1; V.VInt 4 ]));
  Alcotest.(check string) "store"
    "array store: index 3 out of bounds for dimension 0 (size 3)"
    (runtime_error (call "store" [ V.VInt 3; V.VInt 3 ]))

let test_mutable_array_roundtrip () =
  let src =
    {|class C {
  static int f(int n) {
    int[] a = new int[n];
    for (int i = 0; i < n; i++) { a[i] = i * i; }
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    return s;
  }
}|}
  in
  Alcotest.(check int) "sum of squares" 285 (vint (run1 src ~meth:"f" [ V.VInt 10 ]))

let test_objects () =
  let src =
    {|class C {
  int acc;
  C(int start) { acc = start; }
  void bump(int k) { acc = acc + k; }
  int get() { return acc; }
  static int f() {
    C c = new C(5);
    c.bump(3);
    c.bump(2);
    return c.get();
  }
}|}
  in
  Alcotest.(check int) "stateful object" 10 (vint (run1 src ~meth:"f" []))

let test_static_state () =
  let src =
    {|class C {
  static int counter = 100;
  static int f() { counter = counter + 1; return counter; }
}|}
  in
  let md = Lower.lower_program (Check.check_string src) in
  let st = Interp.create md in
  ignore (Interp.run st ~cls:"C" ~meth:"f" []);
  let v = Interp.run st ~cls:"C" ~meth:"f" [] in
  Alcotest.(check int) "static persists" 102 (vint v)

let test_counters () =
  let src =
    {|class C {
  static float f(float[[]] xs) {
    float s = 0.0f;
    for (int i = 0; i < xs.length; i++) { s += Math.sqrt(xs[i]); }
    return s;
  }
}|}
  in
  let xs = V.of_float_array (Array.make 8 4.0) in
  let _, st = run_fn src ~meth:"f" [ V.VArr xs ] in
  let c = st.Interp.counters in
  Alcotest.(check int) "8 sqrts" 8 c.Interp.sqrts;
  Alcotest.(check bool) "memory reads counted" true (c.Interp.mem_reads >= 8);
  Alcotest.(check bool) "branches counted" true (c.Interp.branches >= 8)

let test_range_and_tovalue () =
  let src =
    {|class C {
  static int f(int n) {
    int[[]] r = Lime.range(n);
    return r[n - 1];
  }
  static float g(int n) {
    float[] a = new float[n];
    a[2] = 7.5f;
    float[[]] v = Lime.toValue(a);
    a[2] = 0.0f;
    return v[2];
  }
}|}
  in
  Alcotest.(check int) "range last" 9 (vint (run1 src ~meth:"f" [ V.VInt 10 ]));
  (* toValue is a *copy*: later mutation of the source is invisible *)
  Alcotest.(check (float 0.0)) "toValue copies" 7.5
    (vfloat (run1 src ~meth:"g" [ V.VInt 5 ]))

let test_break_continue () =
  let src =
    {|class C {
  static int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
      if (i == 3) { continue; }
      if (i == 7) { break; }
      s += i;
    }
    return s;
  }
}|}
  in
  (* 0+1+2+4+5+6 = 18 *)
  Alcotest.(check int) "break/continue" 18
    (vint (run1 src ~meth:"f" [ V.VInt 100 ]));
  let src =
    {|class C {
  static int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
      int j = 0;
      while (j < n) {
        j++;
        if (j == 2) { continue; }
        if (j > i) { break; }
        s += 10 * i + j;
      }
      if (i == 2) { continue; }
      if (i == 4) { break; }
      s += 1000;
    }
    return s;
  }
}|}
  in
  (* inner sums for i = 1..4: 11, 21, 31+33, 41+43+44 = 224; the outer
     loop adds 1000 for i = 0, 1 and 3 *)
  Alcotest.(check int) "nested break/continue" 3224
    (vint (run1 src ~meth:"f" [ V.VInt 10 ]))

let test_return_in_map () =
  let src =
    {|class C {
  static local int clip(int x) {
    if (x > 5) { return 5; }
    for (int k = 0; k < 10; k++) {
      if (k == x) { return 100 + k; }
    }
    return -1;
  }
  static local int[[]] f(int[[]] xs) { return C.clip @ xs; }
}|}
  in
  let xs = V.of_int_array [| 0; 3; 9; 5; 7 |] in
  match run1 src ~meth:"f" [ V.VArr xs ] with
  | V.VArr a ->
      Alcotest.(check (array int)) "early returns per element"
        [| 100; 103; 5; 105; 5 |] (V.to_int_array a)
  | v -> Alcotest.failf "expected an array, got %s" (V.to_string v)

let test_recursion () =
  let src =
    {|class C {
  static int fib(int n) {
    if (n < 2) { return n; }
    return C.fib(n - 1) + C.fib(n - 2);
  }
  static int even(int n) { if (n == 0) { return 1; } return C.odd(n - 1); }
  static int odd(int n) { if (n == 0) { return 0; } return C.even(n - 1); }
}|}
  in
  let md = Lower.lower_program (Check.check_string src) in
  let st = Interp.create md in
  Alcotest.(check int) "fib 15" 610
    (vint (Interp.run st ~cls:"C" ~meth:"fib" [ V.VInt 15 ]));
  Alcotest.(check int) "mutual recursion" 1
    (vint (Interp.run st ~cls:"C" ~meth:"even" [ V.VInt 10 ]));
  (* fib 15 makes 1973 invocations and even 10 makes 11; the two entry
     calls from [run] are not call sites *)
  Alcotest.(check int) "calls counted at call sites" (1972 + 10)
    st.Interp.counters.Interp.calls

(* hand-built IR: the checker rejects such reads in source programs *)
let ir_module body =
  let funcs = Hashtbl.create 1 in
  Hashtbl.replace funcs "C.f"
    {
      Ir.fn_name = "C.f";
      fn_class = "C";
      fn_method = "f";
      fn_params = [ ("p", Ir.TScalar Ir.SBool) ];
      fn_ret = Ir.TScalar Ir.SInt;
      fn_body = body;
      fn_static = true;
      fn_local = false;
      fn_loc = Lime_support.Loc.dummy;
    };
  {
    Ir.md_funcs = funcs;
    md_classes = Hashtbl.create 1;
    md_static_inits = [];
    md_field_inits = [];
  }

let test_read_before_declaration () =
  (* one flat scope per call: a declaration in a branch stays visible
     after it, and a read that no executed declaration precedes fails,
     whether the local would be an int or a float *)
  List.iter
    (fun (ty, init, want) ->
      let md =
        ir_module
          [
            Ir.SIf
              (Ir.Var "p", [ Ir.SDecl ("x", Ir.TScalar ty, Some init) ], []);
            Ir.SReturn (Some (Ir.Var "x"));
          ]
      in
      let call p =
        Interp.run (Interp.create md) ~cls:"C" ~meth:"f" [ V.VInt p ]
      in
      Alcotest.(check string) "declared in a taken branch" (V.to_string want)
        (V.to_string (call 1));
      Alcotest.(check string) "read before declaration"
        "unbound variable 'x'" (runtime_error (fun () -> call 0)))
    [
      (Ir.SInt, Ir.Const (Ir.CInt 7), V.VInt 7);
      (Ir.SFloat, Ir.Const (Ir.CFloat 1.5), V.VFloat 1.5);
    ];
  let y_plus_1 =
    Ir.Bin (Lime_frontend.Ast.Add, Ir.SInt, Ir.Var "y", Ir.Const (Ir.CInt 1))
  in
  let md = ir_module [ Ir.SReturn (Some y_plus_1) ] in
  Alcotest.(check string) "never declared" "unbound variable 'y'"
    (runtime_error (fun () ->
         Interp.run (Interp.create md) ~cls:"C" ~meth:"f" [ V.VInt 0 ]))

(* A local whose binding sites disagree on its type keeps a boxed slot
   and so the exact value of whichever declaration ran. *)
let test_mixed_types () =
  let decl ty k = Ir.SDecl ("x", Ir.TScalar ty, Some (Ir.Const k)) in
  let ret = Ir.SReturn (Some (Ir.Var "x")) in
  let md =
    ir_module
      [
        Ir.SIf
          ( Ir.Var "p",
            [ decl Ir.SInt (Ir.CInt 7); ret ],
            [ decl Ir.SFloat (Ir.CFloat 2.5); ret ] );
      ]
  in
  let st = Interp.create md in
  let call p = V.to_string (Interp.run st ~cls:"C" ~meth:"f" [ V.VInt p ]) in
  Alcotest.(check string) "int branch" "7" (call 1);
  Alcotest.(check string) "float branch" "2.5f" (call 0);
  Alcotest.(check string) "int branch again" "7" (call 1)

(* Frames are reused from call to call: a live call must never share one,
   even when the callee is entered again while its arguments are being
   evaluated, and a call that raised must not leave a frame behind. *)
let test_frame_reuse () =
  let src =
    {|class C {
  static float fib(float n) {
    if (n < 2.0f) { return n; }
    float a = C.fib(n - 1.0f);
    float b = C.fib(n - 2.0f);
    return a + b;
  }
  static float nest(float x, int n) {
    if (n == 0) { return x; }
    float y = x + 1.0f;
    return C.nest(C.nest(y, n - 1), n - 1) * 0.5f + y;
  }
  static float down(float x, int n, int bad) {
    float y = x + 1.0f;
    if (n == bad) { int z = 1 / (n - bad); }
    if (n == 0) { return y; }
    float r = C.down(y, n - 1, bad);
    return r + y;
  }
}|}
  in
  let md = Lower.lower_program (Check.check_string src) in
  let st = Interp.create md in
  let run meth args = vfloat (Interp.run st ~cls:"C" ~meth args) in
  Alcotest.(check (float 0.0)) "fib 15" 610.0 (run "fib" [ V.VFloat 15.0 ]);
  let rec nest x n =
    if n = 0 then x
    else
      let y = V.f32 (x +. 1.0) in
      V.f32 (V.f32 (nest (nest y (n - 1)) (n - 1) *. 0.5) +. y)
  in
  Alcotest.(check (float 0.0)) "calls in arguments" (nest 0.0 4)
    (run "nest" [ V.VFloat 0.0; V.VInt 4 ]);
  let down bad = [ V.VFloat 0.0; V.VInt 6; V.VInt bad ] in
  Alcotest.(check string) "error mid-recursion" "division by zero"
    (runtime_error (fun () -> Interp.run st ~cls:"C" ~meth:"down" (down 3)));
  (* y = 1..7 down the recursion; the sum comes back up *)
  Alcotest.(check (float 0.0)) "same state after the error" 28.0
    (run "down" (down (-1)))

(* Java evaluates operands left to right (JLS 15.7.1) *)
let test_evaluation_order () =
  let src =
    {|class Order {
  static int tag(int k) { Lime.print(k); return k; }
  static int main() {
    int s = Order.tag(1) - Order.tag(2);
    float f = (float) Order.tag(3) * (float) Order.tag(4);
    boolean b = Order.tag(5) < Order.tag(6);
    int[] a = new int[8];
    a[Order.tag(7)] = Order.tag(0);
    return s + Math.max(Order.tag(8), Order.tag(9));
  }
}|}
  in
  let md = Lower.lower_program (Check.check_string src) in
  let st = Interp.create md in
  let printed = ref [] in
  st.Interp.print_hook <- (fun s -> printed := s :: !printed);
  let v = Interp.run st ~cls:"Order" ~meth:"main" [] in
  Alcotest.(check int) "result" 8 (vint v);
  Alcotest.(check (list string)) "operands left to right"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "0"; "8"; "9" ]
    (List.rev !printed)

(* ------------------------------------------------------------------ *)
(* Golden counters                                                     *)
(* ------------------------------------------------------------------ *)

(* The counters feed the Java cost model (Device.jvm_time), so the
   evaluator must count exactly what it always counted.  Each row pins
   the 12 counters and a digest of the bit-level result of one run: the
   11 registry workers at test scale on their default-seed inputs, and
   the reference chains of the first 16 programs of [Gen.corpus ~seed:0]
   run the way the fuzz oracle runs them. *)

module R = Lime_benchmarks.Registry
module B = Lime_benchmarks.Bench_def
module Gen = Lime_fuzz.Gen
module Pipeline = Lime_gpu.Pipeline

let counter_array (c : Interp.counters) =
  [| c.alu; c.divs; c.sqrts; c.transcendentals; c.mem_reads; c.mem_writes;
     c.bounds_checks; c.field_accesses; c.branches; c.calls; c.alloc_bytes;
     c.double_ops |]

(* every scalar by its bits, so the digest pins f32 rounding too *)
let digest_value (v : V.t) =
  let b = Buffer.create 4096 in
  let rec go = function
    | V.VUnit -> Buffer.add_string b "u;"
    | V.VInt i -> Printf.bprintf b "i%d;" i
    | V.VLong l -> Printf.bprintf b "l%Ld;" l
    | V.VFloat f -> Printf.bprintf b "f%Lx;" (Int64.bits_of_float f)
    | V.VDouble f -> Printf.bprintf b "d%Lx;" (Int64.bits_of_float f)
    | V.VArr a ->
        Printf.bprintf b "a%s[%s]{" (Ir.scalar_name a.V.elem)
          (String.concat "x"
             (Array.to_list (Array.map string_of_int a.V.shape)));
        for i = 0 to V.length a - 1 do
          go (V.index a [ i ])
        done;
        Buffer.add_char b '}'
    | V.VObj o -> Printf.bprintf b "o%s;" o.V.cls
    | V.VGraph g -> Printf.bprintf b "g%d;" (List.length g)
  in
  go v;
  Digest.to_hex (Digest.string (Buffer.contents b))

let registry_row (b : B.t) =
  let c = R.compile_small b in
  let st = Interp.create c.Pipeline.cp_module in
  let cls, meth =
    match String.split_on_char '.' b.B.worker with
    | [ c; m ] -> (c, m)
    | _ -> assert false
  in
  let v = Interp.run st ~cls ~meth [ b.B.input_small () ] in
  (b.B.name, counter_array st.Interp.counters, digest_value v)

let corpus_row i (p : Gen.prog) =
  let source = Gen.to_source p in
  let workers = Gen.workers p in
  let md =
    (Pipeline.compile ~worker:(List.hd workers) source).Pipeline.cp_module
  in
  let st = Interp.create md in
  let input =
    Interp.run_instance st ~cls:"GenApp" ~ctor_args:[ V.VInt p.Gen.p_n ]
      ~meth:"gen" []
  in
  let v =
    List.fold_left
      (fun v w -> Interp.call_function st w None [ v ])
      input workers
  in
  (Printf.sprintf "corpus %d" i, counter_array st.Interp.counters,
   digest_value v)

let golden_rows () =
  List.map registry_row R.workloads
  @ List.mapi corpus_row (Gen.corpus ~seed:0 16)

let golden : (string * int array * string) list =
  [
    ( "N-Body (Single)",
      [| 77824; 4096; 4096; 0; 32832; 256; 32896; 4096; 4160; 0; 1536; 0 |],
      "1a6c10c73dc6c21a44dabcc8587f4d70" );
    ( "N-Body (Double)",
      [| 77824; 4096; 4096; 0; 32832; 256; 32896; 4096; 4160; 0; 3072; 81920 |],
      "5d4f282ed0bdd90fd215231054e8bdd9" );
    ( "Mosaic",
      [| 2503753; 55296; 0; 0; 1598976; 26136;
         3199512; 12361; 812568; 0; 208896; 0 |],
      "e4d30e509304469d6594ccbb261bf6be" );
    ( "Parboil-CP",
      [| 333825; 34816; 32768; 0; 131072; 1024;
         263168; 36866; 33792; 0; 4096; 0 |],
      "4f6f59ae8de6fb1986df6ef904f721f8" );
    ( "Parboil-MRIQ",
      [| 497152; 0; 0; 98304; 196608; 1536; 393728; 49153; 49664; 0; 8192; 0 |],
      "4c9166ac2fa4c51b406ee603eecf13e8" );
    ( "Parboil-RPES",
      [| 1558528; 1024; 131072; 262144; 65536; 1024;
         132096; 18433; 148480; 16384; 4096; 0 |],
      "e8ef0b3536e5221e665d41f2717307d6" );
    ( "JG-Crypt",
      [| 350209; 16385; 0; 0; 4096; 4608; 4608; 1024; 37376; 16384; 8192; 0 |],
      "34fcd73fadff0a6bbf1ef8c810997c0f" );
    ( "JG-Series (Single)",
      [| 102528; 64; 0; 19200; 6400; 192; 6464; 6528; 6464; 0; 1024; 0 |],
      "12813d74d0f7d666f7ecd5315063712c" );
    ( "JG-Series (Double)",
      [| 102528; 64; 0; 19200; 6400; 192; 6464; 6528; 6464; 0; 2048; 102464 |],
      "69e843944cebc96c4b258213dd1a879b" );
    ( "TMatMul",
      [| 16384000; 0; 0; 0; 8217600; 4121760;
         16409760; 25761; 4121760; 0; 307200; 0 |],
      "1c8ead74fd9b423f3b8ad56397c7b194" );
    ( "N-Body Pipe",
      [| 77824; 4096; 4096; 0; 32832; 256; 32896; 4096; 4160; 0; 1536; 0 |],
      "1a6c10c73dc6c21a44dabcc8587f4d70" );
    ( "corpus 0",
      [| 136; 9; 9; 0; 27; 27; 45; 2; 27; 0; 108; 0 |],
      "d54a2d3b337dab6ef37ffc488b90ba33" );
    ( "corpus 1",
      [| 2986; 7; 154; 0; 21; 21; 35; 2; 196; 0; 84; 0 |],
      "5015f7814dff696aa600732ad84b73ec" );
    ( "corpus 2",
      [| 11649; 35; 577; 0; 49; 28; 70; 2; 893; 0; 112; 0 |],
      "f9536beffb5a169bdc835228f05c9e3b" );
    ( "corpus 3",
      [| 64; 7; 0; 0; 14; 14; 21; 2; 14; 0; 56; 0 |],
      "012788516ccad8af1e37144d2490bf82" );
    ( "corpus 4",
      [| 169; 8; 0; 0; 16; 16; 24; 2; 24; 0; 64; 0 |],
      "a5584987da0b55632a012a32d84fbbf9" );
    ( "corpus 5",
      [| 3555; 72; 120; 0; 120; 96; 192; 2; 384; 0; 384; 0 |],
      "4d619d5d1acbae521aabd8b2aa7c99a3" );
    ( "corpus 6",
      [| 686; 19; 19; 0; 57; 57; 95; 2; 152; 0; 228; 0 |],
      "6f29e929c97d5798e40781e2cb9ba9f7" );
    ( "corpus 7",
      [| 20425; 19; 1368; 0; 57; 57; 95; 2; 1292; 0; 228; 0 |],
      "9a6c9c15d89a74c33eb82001dd2187f1" );
    ( "corpus 8",
      [| 139; 18; 6; 0; 18; 18; 36; 2; 30; 0; 72; 0 |],
      "94336670bc168fcf257757ee976101cd" );
    ( "corpus 9",
      [| 482; 16; 16; 0; 48; 48; 80; 2; 48; 0; 192; 0 |],
      "ede6068823a4f2c6cb61660ec52f4a24" );
    ( "corpus 10",
      [| 248; 13; 13; 0; 39; 39; 65; 2; 39; 0; 156; 0 |],
      "6dc3b45a8a9eb979f56bf35c1a69e5d5" );
    ( "corpus 11",
      [| 380; 57; 0; 0; 76; 57; 114; 2; 95; 0; 228; 0 |],
      "d110ee441aa3cde1f92646c2b90fe828" );
    ( "corpus 12",
      [| 210; 15; 10; 0; 20; 15; 30; 2; 35; 0; 60; 0 |],
      "83b9676f4f43156537350cb3096fa245" );
    ( "corpus 13",
      [| 207; 23; 0; 0; 46; 46; 69; 2; 46; 0; 184; 0 |],
      "8998b67c9ea195ba296917818b1fc6a9" );
    ( "corpus 14",
      [| 5568; 138; 345; 0; 138; 92; 230; 2; 575; 0; 368; 0 |],
      "805976e9f1d219fb7945b58edfb0a154" );
    ( "corpus 15",
      [| 13362; 20; 1100; 0; 80; 80; 140; 2; 640; 0; 320; 0 |],
      "53e0e3cfaa8f91af2938c8bf43bab679" );
  ]

(* Scalar locals live unboxed and float results go to frame slots, so
   interpreting CP's worker allocates next to nothing per operation.  The
   operations are the ten counters perfbench's run workload sums. *)
let test_cp_allocation () =
  let b = Option.get (R.find "Parboil-CP") in
  let c = R.compile_small b in
  let input = b.B.input_small () in
  let w0 = Gc.minor_words () in
  let st = Interp.create c.Pipeline.cp_module in
  ignore (Interp.run st ~cls:"CP" ~meth:"computeGrid" [ input ]);
  let words = Gc.minor_words () -. w0 in
  let k = st.Interp.counters in
  let ops =
    k.alu + k.divs + k.sqrts + k.transcendentals + k.mem_reads + k.mem_writes
    + k.bounds_checks + k.field_accesses + k.branches + k.calls
  in
  let per_op = words /. float ops in
  if per_op >= 0.05 then
    Alcotest.failf "%.0f minor words for %d operations (%.3f per op)" words ops
      per_op

let show_row (name, c, d) =
  Printf.sprintf "(%S, [| %s |], %S);" name
    (String.concat "; " (Array.to_list (Array.map string_of_int c)))
    d

let test_golden_counters () =
  let rows = golden_rows () in
  Alcotest.(check int) "row count" (List.length golden) (List.length rows);
  List.iter2
    (fun want got ->
      Alcotest.(check string) "row" (show_row want) (show_row got))
    golden rows

let () =
  Alcotest.run "interp"
    [
      ( "numerics",
        [
          Alcotest.test_case "int32 wraparound" `Quick test_int32_wraparound;
          Alcotest.test_case "ushr" `Quick test_ushr;
          Alcotest.test_case "byte narrowing" `Quick test_byte_narrowing;
          Alcotest.test_case "single precision" `Quick test_single_precision;
          Alcotest.test_case "integer division" `Quick test_integer_division;
          Alcotest.test_case "long ops" `Quick test_long_ops;
          Alcotest.test_case "math builtins" `Quick test_math_builtins;
        ] );
      ( "arrays",
        [
          Alcotest.test_case "views" `Quick test_arrays_views;
          Alcotest.test_case "bounds" `Quick test_bounds_check;
          Alcotest.test_case "mutable roundtrip" `Quick
            test_mutable_array_roundtrip;
          Alcotest.test_case "range/toValue" `Quick test_range_and_tovalue;
        ] );
      ( "objects/state",
        [
          Alcotest.test_case "objects" `Quick test_objects;
          Alcotest.test_case "statics" `Quick test_static_state;
        ] );
      ( "control",
        [
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "return in map" `Quick test_return_in_map;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "read before declaration" `Quick
            test_read_before_declaration;
          Alcotest.test_case "evaluation order" `Quick test_evaluation_order;
        ] );
      ( "typed frames",
        [
          Alcotest.test_case "mixed types stay boxed" `Quick test_mixed_types;
          Alcotest.test_case "frame reuse" `Quick test_frame_reuse;
          Alcotest.test_case "CP allocation" `Quick test_cp_allocation;
        ] );
      ( "counters",
        [
          Alcotest.test_case "counts" `Quick test_counters;
          Alcotest.test_case "golden" `Quick test_golden_counters;
        ] );
    ]
