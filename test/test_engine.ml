(* Integration tests for the task-graph engine: offload decisions, real
   marshaling in the loop, functional vs non-functional firing, bytecode
   mode, phase accounting. *)

module V = Lime_ir.Value
module Engine = Lime_runtime.Engine
module Comm = Lime_runtime.Comm
module Memopt = Lime_gpu.Memopt

let nbody = Lime_benchmarks.Nbody.single

let run_nbody ?(cfg = Engine.default_config) n steps =
  let c =
    Lime_gpu.Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
      nbody.Lime_benchmarks.Bench_def.source
  in
  Engine.run_program cfg c.Lime_gpu.Pipeline.cp_module ~cls:"NBodySim"
    ~meth:"main"
    [ V.VInt n; V.VInt steps ]

let test_offload_placement () =
  let _, r = run_nbody 32 1 in
  Alcotest.(check (list string)) "filter offloaded"
    [ "NBody.computeForces" ] r.Engine.offloaded_tasks;
  Alcotest.(check (list string)) "source and sink on host"
    [ "NBodySim.particleGen"; "NBodySim.accumulate" ]
    r.Engine.host_tasks

let test_firings () =
  let _, r = run_nbody 16 5 in
  Alcotest.(check int) "five firings" 5 r.Engine.firings

let test_phases_accounted () =
  let _, r = run_nbody 64 2 in
  let p = r.Engine.phases in
  Alcotest.(check bool) "kernel time" true (p.Comm.kernel_s > 0.0);
  Alcotest.(check bool) "marshal time" true (p.Comm.java_marshal_s > 0.0);
  Alcotest.(check bool) "pcie time" true (p.Comm.pcie_s > 0.0);
  Alcotest.(check bool) "host time" true (p.Comm.host_s > 0.0);
  Alcotest.(check bool) "total positive" true (Comm.total p > 0.0)

let test_functional_result_matches_reference () =
  (* the value delivered to the sink equals the reference forces *)
  let _, r = run_nbody 24 1 in
  let input_like =
    (* rebuild the same particles the Lime source generates: run the
       generator through the engine-less interpreter *)
    let c =
      Lime_gpu.Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
        nbody.Lime_benchmarks.Bench_def.source
    in
    let st = Lime_ir.Interp.create c.Lime_gpu.Pipeline.cp_module in
    Lime_ir.Interp.run_instance st ~cls:"NBodySim" ~ctor_args:[ V.VInt 24 ]
      ~meth:"particleGen" []
  in
  let want = nbody.Lime_benchmarks.Bench_def.reference input_like in
  Alcotest.(check bool) "sink received real forces" true
    (V.approx_equal ~rtol:2e-4 ~atol:1e-5 r.Engine.last_value want)

let test_nonfunctional_shape () =
  let cfg = { Engine.default_config with Engine.functional = false } in
  let _, r = run_nbody ~cfg 24 1 in
  match r.Engine.last_value with
  | V.VArr a ->
      Alcotest.(check (array int)) "zero result has right shape" [| 24; 3 |]
        a.V.shape
  | v -> Alcotest.failf "expected array, got %s" (V.to_string v)

let test_bytecode_mode () =
  let cfg = { Engine.default_config with Engine.device = None } in
  let _, r = run_nbody ~cfg 16 1 in
  Alcotest.(check (list string)) "nothing offloaded" [] r.Engine.offloaded_tasks;
  Alcotest.(check int) "three host tasks" 3 (List.length r.Engine.host_tasks);
  Alcotest.(check bool) "no kernel time" true
    (r.Engine.phases.Comm.kernel_s = 0.0)

let test_generic_serializer_slower () =
  let run serializer =
    let cfg = { Engine.default_config with Engine.serializer } in
    let _, r = run_nbody ~cfg 64 1 in
    r.Engine.phases.Comm.java_marshal_s
  in
  Alcotest.(check bool) "generic marshal dearer" true
    (run Lime_runtime.Marshal.Generic > run Lime_runtime.Marshal.Custom)

let test_device_choice_changes_kernel_time () =
  let time d =
    let cfg = { Engine.default_config with Engine.device = Some d } in
    let _, r = run_nbody ~cfg 64 1 in
    r.Engine.phases.Comm.kernel_s
  in
  let t8800 = time Gpusim.Device.gtx8800 in
  let t580 = time Gpusim.Device.gtx580 in
  Alcotest.(check bool) "newer GPU faster" true (t580 < t8800)

let test_all_benchmark_graphs_run () =
  (* every benchmark's task-graph main executes end-to-end on the engine *)
  List.iter
    (fun ((b : Lime_benchmarks.Bench_def.t), n) ->
      let c =
        Lime_gpu.Pipeline.compile ~worker:b.Lime_benchmarks.Bench_def.worker
          b.Lime_benchmarks.Bench_def.source_small
      in
      let cls =
        match String.split_on_char '.' b.Lime_benchmarks.Bench_def.worker with
        | [ c; _ ] -> c
        | _ -> assert false
      in
      let app_cls =
        (* app classes are <Name>App or <Name>Sim *)
        let candidates = [ cls ^ "App"; cls ^ "Sim"; "NBodySim" ] in
        List.find
          (fun cand ->
            Hashtbl.fold
              (fun _ (cm : Lime_ir.Ir.class_meta) acc ->
                acc || cm.Lime_ir.Ir.cm_name = cand)
              c.Lime_gpu.Pipeline.cp_module.Lime_ir.Ir.md_classes false)
          candidates
      in
      let _, r =
        Engine.run_program Engine.default_config c.Lime_gpu.Pipeline.cp_module
          ~cls:app_cls ~meth:"main"
          [ V.VInt n; V.VInt 1 ]
      in
      Alcotest.(check bool)
        (b.Lime_benchmarks.Bench_def.name ^ " offloaded its filter")
        true
        (List.length r.Engine.offloaded_tasks = 1))
    [
      (Lime_benchmarks.Nbody.single, 16);
      (Lime_benchmarks.Nbody.double, 16);
      (Lime_benchmarks.Mosaic.bench, 520) (* tiles: LIB + a few refs *);
      (Lime_benchmarks.Cp.bench, 16);
      (Lime_benchmarks.Mriq.bench, 32);
      (Lime_benchmarks.Rpes.bench, 64);
      (Lime_benchmarks.Crypt.bench, 512);
      (Lime_benchmarks.Series.single, 16);
      (Lime_benchmarks.Series.double, 16);
    ]

let multi_filter_src =
  {|class Multi {
  static local float half(float x) { return x * 0.5f; }
  static local float sq(float x) { return x * x; }
  static local float gen(int i) { return (float) i; }
  static local float[[]] scale(float[[]] xs) { return Multi.half @ xs; }
  static local float[[]] square(float[[]] xs) { return Multi.sq @ xs; }
}
class MultiApp {
  int n;
  float sum;
  MultiApp(int c) { n = c; }
  local float[[]] src() { return Multi.gen @ Lime.range(n); }
  void sink(float[[]] xs) {
    float t = 0.0f;
    for (int i = 0; i < xs.length; i++) { t += xs[i]; }
    sum = t;
  }
  static void main(int c, int steps) {
    (task MultiApp(c).src
       => task Multi.scale
       => task Multi.square
       => task MultiApp(c).sink).finish(steps);
  }
}|}

let test_multi_filter_pipeline () =
  (* a pipeline with TWO offloadable filters: both run on the device, and
     the composed value (x/2)^2 reaches the sink *)
  let c = Lime_gpu.Pipeline.compile ~worker:"Multi.scale" multi_filter_src in
  let _, r =
    Engine.run_program Engine.default_config c.Lime_gpu.Pipeline.cp_module
      ~cls:"MultiApp" ~meth:"main"
      [ V.VInt 8; V.VInt 1 ]
  in
  Alcotest.(check (list string)) "both filters offloaded"
    [ "Multi.scale"; "Multi.square" ]
    r.Engine.offloaded_tasks;
  let want =
    V.of_float_array
      (Array.init 8 (fun i ->
           let h = V.f32 (float_of_int i *. 0.5) in
           V.f32 (h *. h)))
  in
  Alcotest.(check bool) "composed values correct" true
    (V.approx_equal ~rtol:0.0 ~atol:0.0 r.Engine.last_value (V.VArr want))

(* A boolean crosses as a 32-bit word, so the Java-side marshal prices a
   4x3 boolean array as 12 elements, like a 4x3 int array, under the
   custom serializer and the direct layout alike. *)
let test_boolean_marshal_priced_per_element () =
  let module M = Lime_runtime.Marshal in
  let bools = V.VArr (V.make_arr Lime_ir.Ir.SBool [| 4; 3 |])
  and ints = V.VArr (V.make_arr Lime_ir.Ir.SInt [| 4; 3 |]) in
  let price serializer v =
    M.java_marshal_seconds ~serializer ~elem_bytes:(Engine.elem_bytes v)
      (M.wire_size serializer v)
  in
  Alcotest.(check int) "a boolean is a 4-byte word" 4 (Engine.elem_bytes bools);
  List.iter
    (fun (name, serializer) ->
      Alcotest.(check (float 0.0))
        (name ^ ": priced as 12 ints")
        (price serializer ints) (price serializer bools))
    [ ("custom", M.Custom); ("direct", M.Direct) ];
  Alcotest.(check (float 0.0))
    "direct: 12 elements"
    (M.java_marshal_seconds ~serializer:M.Direct ~elem_bytes:1 12)
    (price M.Direct bools)

let () =
  Alcotest.run "engine"
    [
      ( "placement",
        [
          Alcotest.test_case "offload decision" `Quick test_offload_placement;
          Alcotest.test_case "firings" `Quick test_firings;
          Alcotest.test_case "bytecode mode" `Quick test_bytecode_mode;
        ] );
      ( "execution",
        [
          Alcotest.test_case "functional result" `Quick
            test_functional_result_matches_reference;
          Alcotest.test_case "non-functional shape" `Quick
            test_nonfunctional_shape;
          Alcotest.test_case "all benchmark graphs" `Slow
            test_all_benchmark_graphs_run;
          Alcotest.test_case "multi-filter pipeline" `Quick
            test_multi_filter_pipeline;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "phases" `Quick test_phases_accounted;
          Alcotest.test_case "generic serializer slower" `Quick
            test_generic_serializer_slower;
          Alcotest.test_case "device choice" `Quick
            test_device_choice_changes_kernel_time;
          Alcotest.test_case "boolean marshal per element" `Quick
            test_boolean_marshal_priced_per_element;
        ] );
    ]
