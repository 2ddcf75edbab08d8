(* Structural tests for the OpenCL code generator: the Fig 4/5 idioms under
   each memory configuration. *)

module Memopt = Lime_gpu.Memopt
module Opencl = Lime_gpu.Opencl
module Kernel = Lime_gpu.Kernel
module Util = Lime_support.Util

let nbody = Lime_benchmarks.Nbody.single

let compile cfg =
  let c =
    Lime_gpu.Pipeline.compile ~config:cfg
      ~worker:nbody.Lime_benchmarks.Bench_def.worker
      nbody.Lime_benchmarks.Bench_def.source
  in
  c.Lime_gpu.Pipeline.cp_opencl

let has sub src = Util.contains_substring ~sub src
let check_has name sub src = Alcotest.(check bool) name true (has sub src)
let check_not name sub src = Alcotest.(check bool) name false (has sub src)

let test_fig4_structure () =
  let src = compile Memopt.config_global in
  check_has "kernel keyword" "__kernel void NBody_computeForces" src;
  check_has "robust thread loop (Fig 4)"
    "= get_global_id(0);" src;
  check_has "thread stride" "+= get_global_size(0)" src;
  check_has "args struct (Fig 4b)" "typedef struct" src;
  check_has "length bookkeeping" "particles_len0" src;
  check_has "output buffer" "__global float* restrict _out" src

let test_global_qualifiers () =
  let src = compile Memopt.config_global in
  check_has "const global input" "__global const float* restrict particles" src;
  check_not "no constant qualifier" "__constant" src;
  check_not "no image" "image2d_t" src

let test_constant_vector () =
  let src = compile Memopt.config_constant_vector in
  check_has "constant float4 input" "__constant float4* restrict particles" src;
  check_has "vector component read" "_q12.x" src;
  check_has "float4 register" "float4 _elem6 = particles[" src

let test_local_staging () =
  let src = compile Memopt.config_local_noconflict in
  check_has "local tile declared" "__local float particles_tile" src;
  check_has "barrier after staging (Fig 5d)" "barrier(CLK_LOCAL_MEM_FENCE)" src;
  check_has "cooperative copy" "get_local_id(0)" src

let test_image () =
  let src = compile Memopt.config_image in
  check_has "image parameter" "__read_only image2d_t particles" src;
  check_has "sampler" "sampler_t particles_smp" src;
  check_has "read_imagef (Fig 5f)" "read_imagef(particles, particles_smp, (int2)(" src

let test_private_array () =
  let src = compile Memopt.config_global in
  check_has "private result array (Fig 5b)" "float _res" src

(* split source into identifier-ish tokens *)
let tokens src =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '.' || c = '_' || c = '-'
      then c
      else ' ')
    src
  |> String.split_on_char ' '
  |> List.filter (fun t -> t <> "")

let test_float_literals_valid () =
  (* every float literal must contain a '.' or exponent: `0f` would not
     compile in OpenCL C *)
  let src = compile Memopt.config_global in
  check_has "zero literal well-formed" "0.0f" src;
  List.iter
    (fun t ->
      if
        String.length t > 1
        && t.[String.length t - 1] = 'f'
        && t.[0] >= '0'
        && t.[0] <= '9'
      then
        let body = String.sub t 0 (String.length t - 1) in
        match float_of_string_opt body with
        | Some _ ->
            Alcotest.(check bool)
              (Printf.sprintf "literal %s has . or e" t)
              true
              (String.exists (fun c -> c = '.' || c = 'e') body)
        | None -> ())
    (tokens src)

let test_double_pragma () =
  let nbody_d = Lime_benchmarks.Nbody.double in
  let c =
    Lime_gpu.Pipeline.compile
      ~worker:nbody_d.Lime_benchmarks.Bench_def.worker
      nbody_d.Lime_benchmarks.Bench_def.source
  in
  check_has "fp64 pragma" "cl_khr_fp64"
    c.Lime_gpu.Pipeline.cp_opencl

let test_native_transcendentals () =
  let series = Lime_benchmarks.Series.single in
  let c =
    Lime_gpu.Pipeline.compile
      ~worker:series.Lime_benchmarks.Bench_def.worker
      series.Lime_benchmarks.Bench_def.source
  in
  check_has "native sin for float" "native_sin" c.Lime_gpu.Pipeline.cp_opencl;
  check_has "native cos for float" "native_cos" c.Lime_gpu.Pipeline.cp_opencl

let test_parallel_reduction_kernel () =
  (* a worker that IS a reduction compiles to the two-stage tree (§4.1:
     "the compiler may infer a parallel reduction") *)
  let c =
    Lime_gpu.Pipeline.compile ~worker:"Sum.total"
      "class Sum { static local float total(float[[]] xs) { return + ! xs; } }"
  in
  let src = c.Lime_gpu.Pipeline.cp_opencl in
  check_has "local partials" "__local float _partial[TILE]" src;
  check_has "grid-stride accumulate" "for (int _r = get_global_id(0)" src;
  check_has "tree step" "for (int _s = get_local_size(0) / 2" src;
  check_has "barrier between steps" "barrier(CLK_LOCAL_MEM_FENCE)" src;
  check_has "per-group partial" "_out[get_group_id(0)]" src;
  let r = Lime_gpu.Clcheck.check src in
  if not (Lime_gpu.Clcheck.ok r) then
    Alcotest.failf "reduction kernel invalid:
%s" (Lime_gpu.Clcheck.report r)

let test_all_benchmarks_generate () =
  List.iter
    (fun (b : Lime_benchmarks.Bench_def.t) ->
      List.iter
        (fun (scale, source) ->
          let name = b.Lime_benchmarks.Bench_def.name ^ " (" ^ scale ^ ")" in
          let c =
            Lime_gpu.Pipeline.compile
              ~worker:b.Lime_benchmarks.Bench_def.worker source
          in
          let src = c.Lime_gpu.Pipeline.cp_opencl in
          Alcotest.(check bool) (name ^ " has kernel") true
            (has "__kernel void" src);
          Alcotest.(check bool)
            (name ^ " balanced braces")
            true
            (let opens =
               String.fold_left (fun a c -> if c = '{' then a + 1 else a) 0 src
             in
             let closes =
               String.fold_left (fun a c -> if c = '}' then a + 1 else a) 0 src
             in
             opens = closes);
          let r = Lime_gpu.Clcheck.check src in
          if not (Lime_gpu.Clcheck.ok r) then
            Alcotest.failf "%s fails Clcheck:\n%s" name
              (Lime_gpu.Clcheck.report r))
        [
          ("paper", b.Lime_benchmarks.Bench_def.source);
          ("small", b.Lime_benchmarks.Bench_def.source_small);
        ])
    Lime_benchmarks.Registry.workloads

let () =
  Alcotest.run "opencl"
    [
      ( "structure",
        [
          Alcotest.test_case "Fig 4 kernel shape" `Quick test_fig4_structure;
          Alcotest.test_case "global qualifiers" `Quick test_global_qualifiers;
          Alcotest.test_case "constant + vector" `Quick test_constant_vector;
          Alcotest.test_case "local staging" `Quick test_local_staging;
          Alcotest.test_case "image" `Quick test_image;
          Alcotest.test_case "private arrays" `Quick test_private_array;
          Alcotest.test_case "float literals" `Quick test_float_literals_valid;
          Alcotest.test_case "fp64 pragma" `Quick test_double_pragma;
          Alcotest.test_case "native transcendentals" `Quick
            test_native_transcendentals;
          Alcotest.test_case "parallel reduction" `Quick
            test_parallel_reduction_kernel;
          Alcotest.test_case "all benchmarks generate" `Quick
            test_all_benchmarks_generate;
        ] );
    ]
