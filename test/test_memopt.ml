(* Unit tests for the memory optimizer: each Fig 5 pattern, the Fig 8
   configuration toggles, and access-pattern classification. *)

module Ir = Lime_ir.Ir
module Kernel = Lime_gpu.Kernel
module Memopt = Lime_gpu.Memopt
module Access = Lime_gpu.Access

let kernel_of src ~worker =
  Kernel.extract
    (Lime_ir.Lower.lower_program (Lime_typecheck.Check.check_string src))
    ~worker

let space_of decisions name =
  (Memopt.placement_for decisions name).Ir.space

let find_decision decisions pred =
  List.find_opt (fun (d : Memopt.decision) -> pred d) decisions

(* N-Body-like kernel: a streamed array with float4 rows and a private
   result array — exercises local, constant, image, private and vector. *)
let nbody_kernel () =
  kernel_of
    {|class K {
  static local float[[3]] one(float[[][4]] ps, float[[4]] p) {
    float fx = 0.0f;
    for (int j = 0; j < ps.length; j++) {
      fx += ps[j][0] - p[0];
    }
    return { fx, fx, fx };
  }
  static local float[[][3]] work(float[[][4]] ps) { return K.one(ps) @ ps; }
}|}
    ~worker:"K.work"

let test_global_default () =
  let k = nbody_kernel () in
  let ds = Memopt.optimize Memopt.config_global k in
  Alcotest.(check string) "input stays global" "global"
    (Ir.mem_space_name (space_of ds "ps"))

let test_local_pattern () =
  let k = nbody_kernel () in
  let ds = Memopt.optimize Memopt.config_local k in
  Alcotest.(check string) "streamed array goes local" "local"
    (Ir.mem_space_name (space_of ds "ps"));
  Alcotest.(check bool) "unpadded" false (Memopt.placement_for ds "ps").Ir.padded;
  let ds = Memopt.optimize Memopt.config_local_noconflict k in
  Alcotest.(check bool) "padded" true (Memopt.placement_for ds "ps").Ir.padded

let test_constant_pattern () =
  let k = nbody_kernel () in
  let ds = Memopt.optimize Memopt.config_constant k in
  Alcotest.(check string) "streamed array goes constant" "constant"
    (Ir.mem_space_name (space_of ds "ps"))

let test_image_pattern () =
  let k = nbody_kernel () in
  let ds = Memopt.optimize Memopt.config_image k in
  Alcotest.(check string) "float4 rows go to image" "image"
    (Ir.mem_space_name (space_of ds "ps"))

let test_image_needs_small_rows () =
  (* innermost dimension 3 is not a texel size: image must not apply *)
  let k =
    kernel_of
      {|class K {
  static local float one(float[[][3]] ps, int i) {
    float s = 0.0f;
    for (int j = 0; j < ps.length; j++) { s += ps[j][0]; }
    return s;
  }
  static local float[[]] work(float[[][3]] ps) {
    return K.one(ps) @ Lime.range(ps.length);
  }
}|}
      ~worker:"K.work"
  in
  let ds = Memopt.optimize Memopt.config_image k in
  Alcotest.(check string) "rows of 3 stay global" "global"
    (Ir.mem_space_name (space_of ds "ps"))

let test_private_pattern () =
  let k = nbody_kernel () in
  let ds = Memopt.optimize Memopt.config_global k in
  (* the per-thread result row must be private under every config *)
  match
    find_decision ds (fun d -> d.Memopt.d_placement.Ir.space = Ir.MPrivate)
  with
  | Some d ->
      Alcotest.(check bool) "allocated in parfor" true
        d.Memopt.d_info.Memopt.ai_alloc_in_parfor
  | None -> Alcotest.fail "expected a private array"

let test_private_threshold () =
  (* a large per-thread array must NOT go private *)
  let k =
    kernel_of
      {|class K {
  static local float one(int i) {
    float[[]] big = K.gen @ Lime.range(512);
    return big[0];
  }
  static local float gen(int j) { return (float) j; }
  static local float[[]] work(int[[]] xs) {
    return K.one @ Lime.range(xs.length);
  }
}|}
      ~worker:"K.work"
  in
  let ds = Memopt.optimize Memopt.config_all k in
  let big =
    find_decision ds (fun d ->
        d.Memopt.d_info.Memopt.ai_alloc_in_parfor
        && d.Memopt.d_info.Memopt.ai_static_elems = Some 512)
  in
  match big with
  | Some d ->
      Alcotest.(check bool) "spilled out of private" true
        (d.Memopt.d_placement.Ir.space <> Ir.MPrivate)
  | None -> Alcotest.fail "expected the 512-element array in decisions"

let test_written_arrays_stay_global () =
  let k = nbody_kernel () in
  List.iter
    (fun (_, cfg) ->
      let ds = Memopt.optimize cfg k in
      match
        find_decision ds (fun d ->
            (not d.Memopt.d_info.Memopt.ai_read_only)
            && not d.Memopt.d_info.Memopt.ai_alloc_in_parfor)
      with
      | Some d ->
          Alcotest.(check string) "output global" "global"
            (Ir.mem_space_name d.Memopt.d_placement.Ir.space)
      | None -> Alcotest.fail "expected the output array")
    Memopt.fig8_configs

let test_vectorization () =
  let k = nbody_kernel () in
  let ds = Memopt.optimize Memopt.config_constant_vector k in
  Alcotest.(check int) "float4 rows vectorize" 4
    (Memopt.placement_for ds "ps").Ir.vector_width;
  let ds = Memopt.optimize Memopt.config_constant k in
  Alcotest.(check int) "no vectorize without flag" 1
    (Memopt.placement_for ds "ps").Ir.vector_width

let test_no_vector_on_dynamic_rows () =
  let k =
    kernel_of
      {|class K {
  static local float one(float[[][]] ps, int i) {
    float s = 0.0f;
    for (int j = 0; j < ps.length; j++) { s += ps[j][i]; }
    return s;
  }
  static local float[[]] work(float[[][]] ps) {
    return K.one(ps) @ Lime.range(ps.length);
  }
}|}
      ~worker:"K.work"
  in
  let ds = Memopt.optimize Memopt.config_all k in
  Alcotest.(check int) "dynamic rows never vectorize" 1
    (Memopt.placement_for ds "ps").Ir.vector_width

let test_constant_size_budget () =
  (* statically known arrays above 64KB cannot go constant *)
  let k =
    kernel_of
      {|class K {
  static final int N = 32768;
  static local float one(float[[]] big, int i) {
    float s = 0.0f;
    for (int j = 0; j < N; j++) { s += big[j]; }
    return s;
  }
  static local float[[]] work(float[[]] big) {
    return K.one(big) @ Lime.range(N);
  }
}|}
      ~worker:"K.work"
  in
  (* big is dynamic (unbounded) so the budget check is deferred; use the
     analysis info instead to check stream classification *)
  let infos = Memopt.analyze k in
  let big = List.find (fun i -> i.Memopt.ai_name = "big") infos in
  Alcotest.(check bool) "stream access seen" true
    (List.mem Access.AStream big.Memopt.ai_classes)

(* the one index classifier, under a parallel [i], a sequential [j], a
   thread-tainted scalar [t] and a loop-invariant scalar [c] *)
let test_classify_table () =
  let v x = Ir.Var x in
  let bin op a b = Ir.Bin (op, Ir.SInt, a, b) in
  let open Lime_frontend.Ast in
  let thread_vars = Hashtbl.create 2 in
  Hashtbl.replace thread_vars "i" ();
  Hashtbl.replace thread_vars "t" ();
  List.iter
    (fun (label, idx, want) ->
      Alcotest.(check string) label (Access.name want)
        (Access.name
           (Access.classify ~par_vars:[ "i" ] ~seq_vars:[ "j" ] ~thread_vars
              idx)))
    [
      ("i", v "i", Access.AThreadLinear);
      ("i+c", bin Add (v "i") (v "c"), Access.AThreadLinear);
      ("c+i", bin Add (v "c") (v "i"), Access.AThreadLinear);
      ("i-c", bin Sub (v "i") (v "c"), Access.AThreadLinear);
      ("c-i", bin Sub (v "c") (v "i"), Access.AThreadStrided);
      ("2*i", bin Mul (Ir.Const (Ir.CInt 2)) (v "i"), Access.AThreadStrided);
      ("t", v "t", Access.AThreadStrided);
      ("j+1", bin Add (v "j") (Ir.Const (Ir.CInt 1)), Access.AStream);
      ("constant", Ir.Const (Ir.CInt 5), Access.ABroadcast);
    ]

(* the one view resolver, through a two-level view:
   q = a[i]; r = q[j]; r[0] *)
let test_resolve_views () =
  let views = Hashtbl.create 4 in
  let bind x base idx =
    Option.iter (Hashtbl.replace views x) (Access.resolve views base idx)
  in
  bind "q" (Ir.Var "a") [ Ir.Var "i" ];
  bind "r" (Ir.Var "q") [ Ir.Var "j" ];
  let zero = Ir.Const (Ir.CInt 0) in
  Alcotest.(check bool) "r[0] is a[i][j][0]" true
    (Access.resolve views (Ir.Var "r") [ zero ]
    = Some ("a", [ Ir.Var "i"; Ir.Var "j"; zero ]))

let test_constant_budget_cumulative () =
  (* two broadcast arrays that fit the 64KB constant space individually
     but not together: the first (declaration order) wins the budget, the
     second must fall back instead of overcommitting *)
  let k =
    kernel_of
      {|class K {
  static final int N = 12000;
  static local float one(float[[12000]] a, float[[12000]] b, int i) {
    float s = 0.0f;
    for (int j = 0; j < N; j++) { s += a[j] + b[j]; }
    return s;
  }
  static local float[[]] work(float[[12000]] a, float[[12000]] b) {
    return K.one(a, b) @ Lime.range(64);
  }
}|}
      ~worker:"K.work"
  in
  let ds = Memopt.optimize Memopt.config_constant k in
  Alcotest.(check string) "first broadcast array goes constant" "constant"
    (Ir.mem_space_name (space_of ds "a"));
  Alcotest.(check bool) "second array is pushed out of constant" true
    (Ir.mem_space_name (space_of ds "b") <> "constant");
  (* with local also enabled the loser lands in local, not global *)
  let ds =
    Memopt.optimize { Memopt.config_constant with Memopt.use_local = true } k
  in
  Alcotest.(check string) "loser falls back to the next tier" "local"
    (Ir.mem_space_name (space_of ds "b"))

let test_fig8_configs_distinct () =
  Alcotest.(check int) "eight configurations" 8
    (List.length Memopt.fig8_configs);
  let names = List.map fst Memopt.fig8_configs in
  Alcotest.(check int) "distinct names" 8
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "memopt"
    [
      ( "patterns",
        [
          Alcotest.test_case "global default" `Quick test_global_default;
          Alcotest.test_case "local (Fig 5c-d)" `Quick test_local_pattern;
          Alcotest.test_case "constant (Fig 5g-h)" `Quick test_constant_pattern;
          Alcotest.test_case "image (Fig 5e-f)" `Quick test_image_pattern;
          Alcotest.test_case "image needs texel rows" `Quick
            test_image_needs_small_rows;
          Alcotest.test_case "private (Fig 5a-b)" `Quick test_private_pattern;
          Alcotest.test_case "private threshold" `Quick test_private_threshold;
          Alcotest.test_case "outputs stay global" `Quick
            test_written_arrays_stay_global;
        ] );
      ( "vectorization",
        [
          Alcotest.test_case "float4 rows" `Quick test_vectorization;
          Alcotest.test_case "dynamic rows excluded" `Quick
            test_no_vector_on_dynamic_rows;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "stream classification" `Quick
            test_constant_size_budget;
          Alcotest.test_case "constant budget is cumulative" `Quick
            test_constant_budget_cumulative;
          Alcotest.test_case "fig8 configs" `Quick test_fig8_configs_distinct;
          Alcotest.test_case "index classifier table" `Quick
            test_classify_table;
          Alcotest.test_case "two-level view resolves to its root" `Quick
            test_resolve_views;
        ] );
    ]
