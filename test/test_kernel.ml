(* Unit tests for kernel identification and extraction (paper §4.1). *)

module Ir = Lime_ir.Ir
module Kernel = Lime_gpu.Kernel
module Check = Lime_typecheck.Check
module Lower = Lime_ir.Lower

let lower src = Lower.lower_program (Check.check_string src)

let base_src =
  {|class K {
  static final float SCALE = 2.0f * 3.0f;
  static local float helper(float x) { return x * SCALE; }
  static local float sq(float x) { return K.helper(x) * x; }
  static local float[[]] work(float[[]] xs) { return K.sq @ xs; }
  static local float plain(float x) { return x + 1.0f; }
  int state;
  local float[[]] instWork(float[[]] xs) { return xs; }
  static float nonLocal(float[[]] xs) { return xs[0]; }
}|}

let test_extract_inlines_calls () =
  let md = lower base_src in
  let k = Kernel.extract md ~worker:"K.work" in
  (* no CallF left after extraction *)
  let calls = ref 0 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun _ -> ())
       ~expr:(fun e -> match e with Ir.CallF _ -> incr calls | _ -> ()))
    k.Kernel.k_body;
  Alcotest.(check int) "no residual calls" 0 !calls;
  Alcotest.(check bool) "parallel" true k.Kernel.k_parallel;
  Alcotest.(check bool) "no doubles" false k.Kernel.k_uses_double

let test_extract_folds_statics () =
  let md = lower base_src in
  let k = Kernel.extract md ~worker:"K.work" in
  let statics = ref 0 and const6 = ref 0 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun _ -> ())
       ~expr:(fun e ->
         match e with
         | Ir.StaticGet _ -> incr statics
         | Ir.Const (Ir.CFloat 6.0) -> incr const6
         | _ -> ()))
    k.Kernel.k_body;
  Alcotest.(check int) "no static reads" 0 !statics;
  Alcotest.(check bool) "folded constant appears" true (!const6 >= 1)

let test_recursion_rejected () =
  let src =
    {|class K {
  static local float rec(float x) { return K.rec(x); }
  static local float[[]] work(float[[]] xs) { return K.rec @ xs; }
}|}
  in
  let md = lower src in
  match Lime_support.Diag.protect (fun () -> Kernel.extract md ~worker:"K.work") with
  | Ok _ -> Alcotest.fail "expected recursion rejection"
  | Error d ->
      Alcotest.(check bool) "mentions recursion" true
        (Lime_support.Util.contains_substring ~sub:"recursive"
           d.Lime_support.Diag.message)

let task_desc md cls meth : Ir.task_desc =
  (* build a task descriptor the way the engine sees it *)
  let f = Option.get (Ir.find_func md (Ir.qualify cls meth)) in
  let isolated =
    f.Ir.fn_local
    && List.for_all
         (fun (_, t) ->
           match t with
           | Ir.TScalar _ -> true
           | Ir.TArr a -> a.Ir.value
           | _ -> false)
         f.Ir.fn_params
  in
  {
    Ir.td_class = cls;
    td_method = meth;
    td_ctor = (if f.Ir.fn_static then None else Some []);
    td_isolated = isolated;
    td_in =
      (match f.Ir.fn_params with [] -> Ir.TUnit | (_, t) :: _ -> t);
    td_out = f.Ir.fn_ret;
  }

let test_classification () =
  let md = lower base_src in
  let check name meth expected =
    Alcotest.(check string) name
      (Kernel.verdict_name expected)
      (Kernel.verdict_name (Kernel.classify md (task_desc md "K" meth)))
  in
  check "map worker offloadable" "work" Kernel.Offloadable;
  check "instance worker stateful" "instWork" Kernel.Stateful;
  check "scalar fn has no parallelism" "plain" Kernel.No_parallelism

let test_not_isolated () =
  let md = lower base_src in
  let td = { (task_desc md "K" "nonLocal") with Ir.td_isolated = false } in
  Alcotest.(check string) "non-local not isolated"
    (Kernel.verdict_name Kernel.Not_isolated)
    (Kernel.verdict_name (Kernel.classify md td))

let test_nested_parfor_demoted () =
  let src =
    {|class K {
  static local float inner(int j) { return (float) j; }
  static local float[[]] row(int m, int i) { float[[]] r = K.inner @ Lime.range(m); return r; }
  static local float[[][]] work(int[[]] dims) {
    return K.row(dims[0]) @ Lime.range(dims.length);
  }
}|}
  in
  let md = lower src in
  let k = Kernel.extract md ~worker:"K.work" in
  (* exactly one parallel loop survives; the inner one became SFor *)
  let parfors = ref 0 and fors = ref 0 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SParFor _ -> incr parfors
         | Ir.SFor _ -> incr fors
         | _ -> ())
       ~expr:(fun _ -> ()))
    k.Kernel.k_body;
  Alcotest.(check int) "one parfor" 1 !parfors;
  Alcotest.(check bool) "inner demoted to for" true (!fors >= 1)

let test_extracted_kernel_executes () =
  (* the extracted kernel must compute the same values as the original
     function through the interpreter *)
  let md = lower base_src in
  let k = Kernel.extract md ~worker:"K.work" in
  let xs = Lime_ir.Value.of_float_array [| 1.0; 2.0; 3.0 |] in
  let st0 = Lime_ir.Interp.create md in
  let want =
    Lime_ir.Interp.run st0 ~cls:"K" ~meth:"work" [ Lime_ir.Value.VArr xs ]
  in
  let st1 = Lime_ir.Interp.create (Kernel.to_module k) in
  let got =
    Lime_ir.Interp.call_function st1 "K.work" None [ Lime_ir.Value.VArr xs ]
  in
  Alcotest.(check bool) "identical results" true
    (Lime_ir.Value.approx_equal ~rtol:0.0 ~atol:0.0 want got)

let test_double_detection () =
  let src =
    {|class K {
  static local double sq(double x) { return x * x; }
  static local double[[]] work(double[[]] xs) { return K.sq @ xs; }
}|}
  in
  let md = lower src in
  let k = Kernel.extract md ~worker:"K.work" in
  Alcotest.(check bool) "uses double" true k.Kernel.k_uses_double

(* A static final read inside a kernel is inlined as the literal the host
   computes for it at module load.  Each initializer below was once folded
   by extraction's own arithmetic to a different value than the host's
   (or, for [1 << 4] and [7 % 3], not at all, failing extraction). *)
let test_static_finals_fold_like_host () =
  let show = function
    | Ir.CFloat x | Ir.CDouble x -> Printf.sprintf "%.17g" x
    | c -> Ir.const_str c
  in
  let mismatch (ty, init) =
    let src =
      Printf.sprintf
        {|class K {
  static final %s C = %s;
  static local %s f(int x) { return C; }
  static local %s[[]] work(int[[]] xs) { return K.f @ xs; }
}|}
        ty init ty ty
    in
    let md = lower src in
    let want =
      match
        !(Hashtbl.find (Lime_ir.Interp.create md).Lime_ir.Interp.statics
            ("K", "C"))
      with
      | Lime_ir.Value.VInt i -> Ir.CInt i
      | Lime_ir.Value.VLong l -> Ir.CLong l
      | Lime_ir.Value.VFloat x -> Ir.CFloat x
      | Lime_ir.Value.VDouble d -> Ir.CDouble d
      | v -> Alcotest.failf "%s: host value %s" init (Lime_ir.Value.to_string v)
    in
    match Kernel.extract md ~worker:"K.work" with
    | exception Lime_support.Diag.Error_exn d ->
        Some (Printf.sprintf "%s: %s" init d.Lime_support.Diag.message)
    | k ->
        let consts = ref [] in
        List.iter
          (Ir.iter_stmt
             ~stmt:(fun _ -> ())
             ~expr:(function Ir.Const c -> consts := c :: !consts | _ -> ()))
          k.Kernel.k_body;
        if List.mem want !consts then None
        else
          Some
            (Printf.sprintf "%s: host %s, kernel literals [%s]" init (show want)
               (String.concat "; " (List.map show !consts)))
  in
  Alcotest.(check (list string)) "kernel literal = host value" []
    (List.filter_map mismatch
       [
         ("float", "(float) 16777217");
         ("int", "-(-2147483647 - 1)");
         ("int", "(-2147483647 - 1) / -1");
         ("long", "(long) 2.5f");
         ("int", "1 << 4");
         ("int", "7 % 3");
       ])

(* a worker that is not a legal filter is reported at its declaration:
   base_src declares instWork on line 8 and nonLocal on line 9 *)
let test_rejection_located () =
  let md = lower base_src in
  let located worker ~line ~msg =
    match Kernel.extract md ~worker with
    | _ -> Alcotest.failf "%s extracted" worker
    | exception Lime_support.Diag.Error_exn d ->
        Alcotest.(check bool)
          (worker ^ " message") true
          (Lime_support.Util.contains_substring ~sub:msg
             d.Lime_support.Diag.message);
        Alcotest.(check bool)
          (worker ^ " has a location") false
          (Lime_support.Loc.is_dummy d.Lime_support.Diag.loc);
        Alcotest.(check int)
          (worker ^ " line") line
          d.Lime_support.Diag.loc.Lime_support.Loc.start_pos
            .Lime_support.Loc.line
  in
  located "K.nonLocal" ~line:9 ~msg:"is not local";
  located "K.instWork" ~line:8 ~msg:"is not static";
  match Kernel.extract md ~worker:"K.missing" with
  | _ -> Alcotest.fail "unknown worker extracted"
  | exception Lime_support.Diag.Error_exn d ->
      (* no declaration to point at *)
      Alcotest.(check bool) "unknown worker is unlocated" true
        (Lime_support.Loc.is_dummy d.Lime_support.Diag.loc)

let () =
  Alcotest.run "kernel"
    [
      ( "extraction",
        [
          Alcotest.test_case "inlines calls" `Quick test_extract_inlines_calls;
          Alcotest.test_case "folds statics" `Quick test_extract_folds_statics;
          Alcotest.test_case "rejects recursion" `Quick test_recursion_rejected;
          Alcotest.test_case "demotes nested parfor" `Quick
            test_nested_parfor_demoted;
          Alcotest.test_case "executes identically" `Quick
            test_extracted_kernel_executes;
          Alcotest.test_case "double detection" `Quick test_double_detection;
          Alcotest.test_case "static finals fold like the host" `Quick
            test_static_finals_fold_like_host;
        ] );
      ( "classification",
        [
          Alcotest.test_case "verdicts" `Quick test_classification;
          Alcotest.test_case "not isolated" `Quick test_not_isolated;
          Alcotest.test_case "rejections are located" `Quick
            test_rejection_located;
        ] );
    ]
