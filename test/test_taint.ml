(* Unit tests for the thread-dependence dataflow (Lime_gpu.Taint): the
   classification backbone of the memory optimizer and the profiler. *)

module Ir = Lime_ir.Ir
module Taint = Lime_gpu.Taint

let body_of src ~worker =
  (Lime_gpu.Kernel.extract
     (Lime_ir.Lower.lower_program (Lime_typecheck.Check.check_string src))
     ~worker)
    .Lime_gpu.Kernel.k_body

(* find the IR name a source variable was renamed to (first match) *)
let ir_name_of body src_name =
  let found = ref None in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SDecl (v, _, _)
           when !found = None
                && Lime_support.Util.contains_substring
                     ~sub:("%" ^ src_name) v ->
             found := Some v
         | _ -> ())
       ~expr:(fun _ -> ()))
    body;
  !found

let src =
  {|class K {
  static local float f(float[[]] shared, int n, int i) {
    int untainted = n * 2;
    int derived = i * 3;
    float acc = 0.0f;
    for (int j = 0; j < n; j++) {
      acc += shared[untainted + j];
    }
    float viaAcc = acc + (float) derived;
    return viaAcc;
  }
  static local float[[]] work(float[[]] shared, int n) {
    return K.f(shared, n) @ Lime.range(n);
  }
}|}

let test_flow () =
  let body = body_of src ~worker:"K.work" in
  let t = Taint.thread_dependent body in
  let tainted name =
    match ir_name_of body name with
    | Some v -> Hashtbl.mem t v
    | None -> Alcotest.failf "variable %s not found in IR" name
  in
  Alcotest.(check bool) "n-derived scalar untainted" false
    (tainted "untainted");
  Alcotest.(check bool) "index-derived scalar tainted" true
    (tainted "derived");
  Alcotest.(check bool) "accumulator fed by shared loads untainted" false
    (tainted "acc");
  Alcotest.(check bool) "value through tainted operand tainted" true
    (tainted "viaAcc")

let test_reduce_dst_tainted () =
  let src =
    {|class K {
  static local long score(int[[]] data, int refIdx, int t) {
    return ((long) data[t] << 32) | (long) t;
  }
  static local int f(int[[]] data, int r) {
    long[[]] scores = K.score(data, r) @ Lime.range(8);
    long best = Math.min ! scores;
    return (int) (best & 0xFFFFFFFFL);
  }
  static local int[[]] work(int[[]] data) {
    return K.f(data) @ Lime.range(data.length);
  }
}|}
  in
  let body = body_of src ~worker:"K.work" in
  let t = Taint.thread_dependent body in
  (* the per-thread scores array and the reduce destination are tainted *)
  let any_tainted prefix =
    Hashtbl.fold
      (fun v () acc ->
        acc || Lime_support.Util.contains_substring ~sub:prefix v)
      t false
  in
  Alcotest.(check bool) "per-thread map output tainted" true
    (any_tainted "mapout");
  Alcotest.(check bool) "reduce destination tainted" true (any_tainted "red")

(* A destination declared and initialized outside the parallel loop,
   reducing an array each thread fills: only the reduce rule can taint
   it.  Compiled kernels never show this shape alone (their reduce
   destinations are also uninitialized declarations inside the loop), so
   the body is built by hand. *)
let test_reduce_only_taint () =
  let long = Ir.TScalar Ir.SLong in
  let scores = { Ir.elem = Ir.SLong; dims = [ Ir.DFixed 8 ]; value = false } in
  let body =
    [
      Ir.SDecl ("best", long, Some (Ir.Const (Ir.CLong 0L)));
      Ir.SParFor
        {
          Ir.pf_var = "t";
          pf_count = Ir.Const (Ir.CInt 64);
          pf_out = None;
          pf_body =
            [
              Ir.SDecl ("scores", Ir.TArr scores, None);
              Ir.SArrStore
                ( Ir.Var "scores",
                  [ Ir.Const (Ir.CInt 0) ],
                  Ir.Cast (Ir.SLong, Ir.SInt, Ir.Var "t") );
              Ir.SReduce
                {
                  Ir.rd_dst = "best";
                  rd_op = Lime_typecheck.Tast.RO_Binop Lime_frontend.Ast.Add;
                  rd_scalar = Ir.SLong;
                  rd_arr = Ir.Var "scores";
                };
            ];
        };
    ]
  in
  let t = Taint.thread_dependent body in
  Alcotest.(check bool) "per-thread array tainted" true (Hashtbl.mem t "scores");
  Alcotest.(check bool) "destination tainted through the reduce" true
    (Hashtbl.mem t "best")

let test_seq_loop_vars_not_tainted () =
  let body = body_of src ~worker:"K.work" in
  let t = Taint.thread_dependent body in
  (* sequential loop counters stay shared *)
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SFor (v, _, _, _) ->
             Alcotest.(check bool)
               (v ^ " seq loop var untainted")
               false (Hashtbl.mem t v)
         | _ -> ())
       ~expr:(fun _ -> ()))
    body

let test_parallel_index_tainted () =
  let body = body_of src ~worker:"K.work" in
  let t = Taint.thread_dependent body in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SParFor p ->
             Alcotest.(check bool) "pf var tainted" true
               (Hashtbl.mem t p.Ir.pf_var)
         | _ -> ())
       ~expr:(fun _ -> ()))
    body

(* ------------------------------------------------------------------ *)
(* One table, many readers                                             *)
(* ------------------------------------------------------------------ *)

(* The dataflow as first written: [mentions] lists every variable of an
   expression.  [Taint.thread_dependent] must compute the same set. *)
let reference_thread_dependent (body : Ir.stmt list) =
  let tainted = Hashtbl.create 32 in
  let changed = ref true in
  let mentions e = List.exists (Hashtbl.mem tainted) (Ir.expr_vars e) in
  let add v =
    if not (Hashtbl.mem tainted v) then begin
      Hashtbl.replace tainted v ();
      changed := true
    end
  in
  let rec walk ~in_par (s : Ir.stmt) =
    match s with
    | Ir.SDecl (v, Ir.TArr _, init) ->
        if in_par then add v;
        (match init with Some e when mentions e -> add v | _ -> ())
    | Ir.SDecl (v, _, init) -> (
        match init with
        | Some e -> if mentions e then add v
        | None -> if in_par then add v)
    | Ir.SAssign (Ir.LVar v, e) -> if mentions e then add v
    | Ir.SAssign (_, _) | Ir.SArrStore (_, _, _) -> ()
    | Ir.SIf (_, a, b) ->
        List.iter (walk ~in_par) a;
        List.iter (walk ~in_par) b
    | Ir.SWhile (_, b) | Ir.SFor (_, _, _, b) -> List.iter (walk ~in_par) b
    | Ir.SParFor p ->
        add p.Ir.pf_var;
        List.iter (walk ~in_par:true) p.Ir.pf_body
    | Ir.SReduce r -> if mentions r.Ir.rd_arr then add r.Ir.rd_dst
    | Ir.SInlineBlock (res, b) ->
        List.iter (walk ~in_par) b;
        let returns_tainted = ref false in
        List.iter
          (Ir.iter_stmt
             ~stmt:(function
               | Ir.SReturn (Some e) when mentions e -> returns_tainted := true
               | _ -> ())
             ~expr:(fun _ -> ()))
          b;
        if !returns_tainted then add res
    | Ir.SReturn _ | Ir.SExpr _ | Ir.SBreak | Ir.SContinue | Ir.SFinish _ ->
        ()
  in
  while !changed do
    changed := false;
    List.iter (walk ~in_par:false) body
  done;
  tainted

let sorted_keys t =
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) t [])

(* Every registry workload's compiled kernel on its test-scale launch
   shapes, and every kernel that extracts from the first 200 generated
   programs, its array parameters sized 64 per dynamic dimension. *)
let kernels () =
  let registry =
    List.map
      (fun (b : Lime_benchmarks.Bench_def.t) ->
        let k =
          (Lime_benchmarks.Registry.compile_small b).Lime_gpu.Pipeline.cp_kernel
        in
        let shapes, scalars =
          Lime_runtime.Engine.shapes_of_args k [ b.input_small () ]
        in
        (b.name, k, shapes, scalars))
      Lime_benchmarks.Registry.workloads
  in
  let generated =
    List.concat
      (List.mapi
         (fun i p ->
           match
             Lime_ir.Lower.lower_program
               (Lime_typecheck.Check.check_string (Lime_fuzz.Gen.to_source p))
           with
           | exception Lime_support.Diag.Error_exn _ -> []
           | md ->
               List.filter_map
                 (fun w ->
                   match Lime_gpu.Kernel.extract md ~worker:w with
                   | exception Lime_support.Diag.Error_exn _ -> None
                   | k ->
                       let shapes =
                         List.filter_map
                           (fun (v, t) ->
                             match t with
                             | Ir.TArr a ->
                                 Some
                                   ( v,
                                     Array.of_list
                                       (List.map
                                          (function
                                            | Ir.DFixed n -> n | Ir.DDyn -> 64)
                                          a.Ir.dims) )
                             | _ -> None)
                           k.Lime_gpu.Kernel.k_params
                       in
                       Some (Printf.sprintf "gen#%d/%s" i w, k, shapes, []))
                 (Lime_fuzz.Gen.workers p))
         (Lime_fuzz.Gen.corpus ~seed:0 200))
  in
  (registry, generated)

let test_one_table_many_readers () =
  let registry, generated = kernels () in
  Alcotest.(check bool) "every registry workload" true
    (List.length registry = List.length Lime_benchmarks.Registry.workloads);
  Alcotest.(check bool) "generated kernels extract" true
    (List.length generated >= 200);
  List.iter
    (fun (name, (k : Lime_gpu.Kernel.kernel), shapes, scalars) ->
      let body = k.Lime_gpu.Kernel.k_body in
      let thread_vars = Taint.thread_dependent body in
      Alcotest.(check (list string))
        (name ^ ": tainted set") (sorted_keys (reference_thread_dependent body))
        (sorted_keys thread_vars);
      List.iter
        (fun affine_lanes ->
          let infos = Lime_gpu.Memopt.analyze ~affine_lanes k in
          Alcotest.(check bool)
            (Printf.sprintf "%s: analyze ~thread_vars (affine %b)" name
               affine_lanes)
            true
            (compare infos
               (Lime_gpu.Memopt.analyze ~affine_lanes ~thread_vars k)
            = 0);
          let ds = Lime_gpu.Memopt.decide_all Lime_gpu.Memopt.config_all infos in
          let ext = affine_lanes in
          let profile ?thread_vars () =
            Gpusim.Profile.profile ~hoist_invariant:ext ~affine_lanes:ext
              ?thread_vars k ds ~shapes ~scalars
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: profile ~thread_vars (extensions %b)" name ext)
            true
            (compare (profile ()) (profile ~thread_vars ()) = 0))
        [ false; true ])
    (registry @ generated)

let () =
  Alcotest.run "taint"
    [
      ( "dataflow",
        [
          Alcotest.test_case "flow rules" `Quick test_flow;
          Alcotest.test_case "reduce destination" `Quick
            test_reduce_dst_tainted;
          Alcotest.test_case "reduce is the only taint" `Quick
            test_reduce_only_taint;
          Alcotest.test_case "seq loop vars" `Quick
            test_seq_loop_vars_not_tainted;
          Alcotest.test_case "parallel index" `Quick
            test_parallel_index_tainted;
        ] );
      ( "one table",
        [
          Alcotest.test_case "registry and generated kernels" `Quick
            test_one_table_many_readers;
        ] );
    ]
