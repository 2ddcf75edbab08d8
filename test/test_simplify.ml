(* Tests for the kernel IR simplifier: folding rules, algebraic identities,
   dead-code elimination, and — most importantly — differential testing
   that simplification never changes results on any benchmark. *)

module Ir = Lime_ir.Ir
module V = Lime_ir.Value
module S = Lime_gpu.Simplify
module Kernel = Lime_gpu.Kernel
module B = Lime_benchmarks.Bench_def

let kernel_of src ~worker =
  Kernel.extract
    (Lime_ir.Lower.lower_program (Lime_typecheck.Check.check_string src))
    ~worker

let count pred (body : Ir.stmt list) =
  let n = ref 0 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s -> if pred (`S s) then incr n)
       ~expr:(fun e -> if pred (`E e) then incr n))
    body;
  !n

let test_constant_folding () =
  (* EPS and SCALE arithmetic folds: after simplification no Bin over two
     constants remains *)
  let k =
    kernel_of
      {|class K {
  static final float A = 2.0f;
  static final float B = 3.0f;
  static local float f(float x) { return x * (A * B) + (1.0f + 2.0f); }
  static local float[[]] work(float[[]] xs) { return K.f @ xs; }
}|}
      ~worker:"K.work"
  in
  let k' = S.kernel k in
  let const_pairs body =
    count
      (function
        | `E (Ir.Bin (_, _, Ir.Const _, Ir.Const _)) -> true
        | _ -> false)
      body
  in
  Alcotest.(check bool) "pairs existed before" true
    (const_pairs k.Kernel.k_body > 0);
  Alcotest.(check int) "no constant pairs after" 0
    (const_pairs k'.Kernel.k_body);
  (* and 6.0f appears folded *)
  Alcotest.(check bool) "6.0 present" true
    (count
       (function `E (Ir.Const (Ir.CFloat 6.0)) -> true | _ -> false)
       k'.Kernel.k_body
    > 0)

let test_identities () =
  let k =
    kernel_of
      {|class K {
  static local float f(float x) { return (x * 1.0f + 0.0f) / 1.0f; }
  static local float[[]] work(float[[]] xs) { return K.f @ xs; }
}|}
      ~worker:"K.work"
  in
  let k' = S.kernel k in
  (* f(x) should reduce to the bare element variable: no arithmetic left *)
  let arith body =
    count
      (function
        | `E (Ir.Bin ((Add | Sub | Mul | Div), (Ir.SFloat | Ir.SDouble), _, _))
          ->
            true
        | _ -> false)
      body
  in
  Alcotest.(check int) "no float arithmetic left" 0 (arith k'.Kernel.k_body)

let test_dead_code_removed () =
  let k =
    kernel_of
      {|class K {
  static local float f(float x) {
    float unused = Math.sqrt(x) + 42.0f;
    float alsoUnused = unused * 2.0f;
    return x;
  }
  static local float[[]] work(float[[]] xs) { return K.f @ xs; }
}|}
      ~worker:"K.work"
  in
  let k' = S.kernel k in
  let sqrts body =
    count
      (function
        | `E (Ir.Intrinsic (Lime_typecheck.Tast.BSqrt, _, _)) -> true
        | _ -> false)
      body
  in
  Alcotest.(check bool) "sqrt before" true (sqrts k.Kernel.k_body > 0);
  Alcotest.(check int) "dead sqrt removed" 0 (sqrts k'.Kernel.k_body)

let test_branch_pruning () =
  let k =
    kernel_of
      {|class K {
  static final boolean DEBUG = false;
  static local float f(float x) {
    if (DEBUG) { x = x * 100.0f; }
    return x;
  }
  static local float[[]] work(float[[]] xs) { return K.f @ xs; }
}|}
      ~worker:"K.work"
  in
  let k' = S.kernel k in
  Alcotest.(check int) "constant-false branch pruned" 0
    (count (function `S (Ir.SIf _) -> true | _ -> false) k'.Kernel.k_body)

(* a comparison of two float literals folds like any other operator on
   literals, and the branch it decides is pruned *)
let test_float_comparison_folds () =
  let k =
    kernel_of
      {|class K {
  static local float f(float x) {
    if (1.25f < 0.75f) { x = x * 100.0f; }
    return x;
  }
  static local float[[]] work(float[[]] xs) { return K.f @ xs; }
}|}
      ~worker:"K.work"
  in
  Alcotest.(check bool) "comparison before" true
    (count
       (function
         | `E (Ir.Bin (Lt, Ir.SFloat, Ir.Const _, Ir.Const _)) -> true
         | _ -> false)
       k.Kernel.k_body
    > 0);
  Alcotest.(check int) "branch pruned" 0
    (count (function `S (Ir.SIf _) -> true | _ -> false)
       (S.kernel k).Kernel.k_body)

let test_division_by_zero_preserved () =
  (* a division that traps in the interpreter must NOT be folded away or
     treated as pure: x / 0, the literal 1L / 0L, and a dead declaration
     whose dividend traps *)
  List.iter
    (fun (ty, body) ->
      let k =
        kernel_of
          (Printf.sprintf
             {|class K {
  static local %s f(int x) { %s }
  static local %s[[]] work(int[[]] xs) { return K.f @ xs; }
}|}
             ty body ty)
          ~worker:"K.work"
      in
      let st = Lime_ir.Interp.create (Kernel.to_module (S.kernel k)) in
      match
        Lime_ir.Interp.call_function st "K.work" None
          [ V.VArr (V.of_int_array [| 5 |]) ]
      with
      | exception Lime_ir.Interp.Runtime_error _ -> ()
      | _ ->
          Alcotest.failf "%s: division by zero must survive simplification"
            body)
    [
      ("int", "int trap = x / (x - x); return trap;");
      ("long", "long trap = 1L / 0L; return trap + x;");
      ("int", "int unused = (x / (x - x)) / 2; return x;");
    ]

let differential (b : B.t) () =
  (* simplified and unsimplified kernels produce identical results *)
  let cfg = b.B.best_config in
  let plain =
    Lime_gpu.Pipeline.compile ~config:cfg ~simplify:false ~worker:b.B.worker
      b.B.source_small
  in
  let simp =
    Lime_gpu.Pipeline.compile ~config:cfg ~simplify:true ~worker:b.B.worker
      b.B.source_small
  in
  let input = b.B.input_small () in
  let run (c : Lime_gpu.Pipeline.compiled) =
    let st = Lime_ir.Interp.create (Kernel.to_module c.Lime_gpu.Pipeline.cp_kernel) in
    Lime_ir.Interp.call_function st c.cp_kernel.Kernel.k_name None [ input ]
  in
  Alcotest.(check bool) "identical results" true
    (V.approx_equal ~rtol:0.0 ~atol:0.0 (run plain) (run simp))

let test_simplify_shrinks_profiles () =
  (* the simplifier should not *increase* the modelled work *)
  List.iter
    (fun (b : B.t) ->
      let work simplify =
        let c =
          Lime_gpu.Pipeline.compile ~simplify ~worker:b.B.worker b.B.source
        in
        let input = b.B.input () in
        let k = c.Lime_gpu.Pipeline.cp_kernel in
        let shapes, scalars = Lime_runtime.Engine.shapes_of_args k [ input ] in
        let p = Gpusim.Profile.profile k c.cp_decisions ~shapes ~scalars in
        p.Gpusim.Profile.p_alu
      in
      Alcotest.(check bool)
        (b.B.name ^ ": alu(simplified) <= alu(plain)")
        true
        (work true <= work false +. 0.001))
    [ Lime_benchmarks.Nbody.single; Lime_benchmarks.Series.single ]

let () =
  Alcotest.run "simplify"
    [
      ( "rules",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "dead code" `Quick test_dead_code_removed;
          Alcotest.test_case "branch pruning" `Quick test_branch_pruning;
          Alcotest.test_case "float comparison folds" `Quick
            test_float_comparison_folds;
          Alcotest.test_case "div-by-zero preserved" `Quick
            test_division_by_zero_preserved;
        ] );
      ( "differential",
        List.map
          (fun (b : B.t) -> Alcotest.test_case b.B.name `Quick (differential b))
          Lime_benchmarks.Registry.all );
      ( "profiles",
        [ Alcotest.test_case "never more work" `Quick test_simplify_shrinks_profiles ] );
    ]
