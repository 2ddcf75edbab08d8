(* Tests for the GPU simulator: analytic profile exactness on a known
   kernel, and qualitative properties of the timing model that mirror the
   paper's observations. *)

module Ir = Lime_ir.Ir
module Device = Gpusim.Device
module Profile = Gpusim.Profile
module Model = Gpusim.Model
module Memopt = Lime_gpu.Memopt
module E = Lime_benchmarks.Experiments
module B = Lime_benchmarks.Bench_def

let kernel_of src ~worker =
  Lime_gpu.Kernel.extract
    (Lime_ir.Lower.lower_program (Lime_typecheck.Check.check_string src))
    ~worker

(* ------------------------------------------------------------------ *)
(* Profile exactness                                                   *)
(* ------------------------------------------------------------------ *)

let test_profile_counts_exact () =
  (* kernel: for each of n items, loop m times doing one sqrt *)
  let k =
    kernel_of
      {|class K {
  static local float one(float[[][4]] m, int i) {
    float s = 0.0f;
    for (int j = 0; j < m.length; j++) {
      s += Math.sqrt(m[j][0]);
    }
    return s;
  }
  static local float[[]] work(float[[][4]] m) {
    return K.one(m) @ Lime.range(4 * m.length);
  }
}|}
      ~worker:"K.work"
  in
  let ds = Memopt.optimize Memopt.config_global k in
  let prof =
    Profile.profile k ds ~shapes:[ ("m", [| 100; 4 |]) ] ~scalars:[]
  in
  Alcotest.(check (float 0.0)) "items = 4*100" 400.0 prof.Profile.p_items;
  Alcotest.(check (float 0.0)) "sqrts = items * m" 40000.0 prof.Profile.p_sqrt;
  Alcotest.(check bool) "profile is exact (no approximation)" false
    prof.Profile.p_approx;
  (* m[j][0] loads: one per inner iteration *)
  let m_loads =
    List.fold_left
      (fun acc (a : Profile.access) ->
        if a.Profile.ac_root = "m" && not a.Profile.ac_store then
          acc +. a.Profile.ac_count
        else acc)
      0.0 prof.Profile.p_accesses
  in
  Alcotest.(check (float 0.0)) "m loads" 40000.0 m_loads

let test_profile_matches_interpreter () =
  (* the analytic sqrt count must equal the dynamic count from a real run *)
  let b = Lime_benchmarks.Nbody.single in
  let c = Lime_benchmarks.Registry.compile_small b in
  let k = c.Lime_gpu.Pipeline.cp_kernel in
  let input = b.B.input_small () in
  let shapes, scalars = Lime_runtime.Engine.shapes_of_args k [ input ] in
  let prof = Profile.profile k c.Lime_gpu.Pipeline.cp_decisions ~shapes ~scalars in
  let st = Lime_ir.Interp.create (Lime_gpu.Kernel.to_module k) in
  ignore (Lime_ir.Interp.call_function st k.Lime_gpu.Kernel.k_name None [ input ]);
  Alcotest.(check int) "sqrt counts agree"
    st.Lime_ir.Interp.counters.Lime_ir.Interp.sqrts
    (int_of_float prof.Profile.p_sqrt)

(* ------------------------------------------------------------------ *)
(* Timing-model properties (the paper's qualitative claims)            *)
(* ------------------------------------------------------------------ *)

let nbody_time device cfg =
  let p = E.prepare Lime_benchmarks.Nbody.single in
  E.kernel_time_under p device cfg

let test_global_never_beats_best () =
  (* Fig 8: global-only is never better than the best configuration *)
  List.iter
    (fun d ->
      List.iter
        (fun (b : B.t) ->
          let p = E.prepare b in
          let global = E.kernel_time_under p d Memopt.config_global in
          let best =
            List.fold_left
              (fun acc (_, cfg) -> Float.min acc (E.kernel_time_under p d cfg))
              infinity Memopt.fig8_configs
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: global >= best" b.B.name d.Device.name)
            true
            (global >= best *. 0.999))
        Lime_benchmarks.Registry.fig8)
    E.gpu_devices

let test_fermi_flatter () =
  (* the GTX580's caches make it less sensitive to memory placement than
     the GTX8800 (paper §5.2) *)
  let spread d =
    List.fold_left
      (fun acc (b : B.t) ->
        let p = E.prepare b in
        let times =
          List.map
            (fun (_, cfg) -> E.kernel_time_under p d cfg)
            Memopt.fig8_configs
        in
        let mx = List.fold_left Float.max 0.0 times in
        let mn = List.fold_left Float.min infinity times in
        acc +. (mx /. mn))
      0.0 Lime_benchmarks.Registry.fig8
  in
  Alcotest.(check bool) "GTX580 flatter than GTX8800" true
    (spread Device.gtx580 < spread Device.gtx8800)

let test_double_slower () =
  let ps = E.prepare Lime_benchmarks.Nbody.single in
  let pd = E.prepare Lime_benchmarks.Nbody.double in
  let cfg = Memopt.config_local_noconflict_vector in
  let ts = E.kernel_time_under ps Device.gtx580 cfg in
  let td = E.kernel_time_under pd Device.gtx580 cfg in
  let ratio = td /. ts in
  Alcotest.(check bool)
    (Printf.sprintf "double 1.3-4x slower on GTX580 (got %.2f)" ratio)
    true
    (ratio > 1.3 && ratio < 4.0);
  (* and the HD5970 penalty is milder (paper: ~1.5x vs 2-3x) *)
  let ts5 = E.kernel_time_under ps Device.hd5970 cfg in
  let td5 = E.kernel_time_under pd Device.hd5970 cfg in
  Alcotest.(check bool) "HD5970 double penalty milder" true
    (td5 /. ts5 < ratio)

let test_padding_removes_conflicts () =
  (* Mosaic's local tiles have a conflict-prone row length (64): padding
     must help on the banked local memories *)
  let p = E.prepare Lime_benchmarks.Mosaic.bench in
  List.iter
    (fun d ->
      let unpadded = E.kernel_time_under p d Memopt.config_local in
      let padded = E.kernel_time_under p d Memopt.config_local_noconflict in
      Alcotest.(check bool)
        (Printf.sprintf "padding helps on %s" d.Device.name)
        true (padded < unpadded))
    E.gpu_devices

let test_vectorization_helps_global () =
  (* on the cache-less GTX8800, float4 vector loads reduce global traffic *)
  let t_scalar = nbody_time Device.gtx8800 Memopt.config_global in
  let t_vec = nbody_time Device.gtx8800 Memopt.config_global_vector in
  Alcotest.(check bool) "vector loads help" true (t_vec < t_scalar)

let test_texture_best_for_rpes_8800 () =
  (* paper §5.2: RPES benefits significantly from texture memory on the
     GTX8800 (hardware texture cache + spatial locality) *)
  let p = E.prepare Lime_benchmarks.Rpes.bench in
  let tex = E.kernel_time_under p Device.gtx8800 Memopt.config_image in
  List.iter
    (fun (name, cfg) ->
      if name <> "Texture" then
        Alcotest.(check bool)
          (Printf.sprintf "texture <= %s" name)
          true
          (tex <= E.kernel_time_under p Device.gtx8800 cfg *. 1.001))
    Memopt.fig8_configs

let test_cpu_device_ignores_placement () =
  (* local/constant are just RAM on a CPU: placement must not matter much *)
  let p = E.prepare Lime_benchmarks.Nbody.single in
  let tg = E.kernel_time_under p Device.core_i7 Memopt.config_global in
  let tl = E.kernel_time_under p Device.core_i7 Memopt.config_local_noconflict in
  Alcotest.(check bool) "CPU within 20%" true
    (Float.abs (tg -. tl) /. tg < 0.2)

let test_jvm_slower_than_multicore () =
  let p = E.prepare ~config:Memopt.config_global Lime_benchmarks.Nbody.single in
  let base = E.baseline_seconds p in
  let six = (E.endtoend p Device.core_i7).E.ee_total_s in
  Alcotest.(check bool) "6 cores beat bytecode" true (six < base)

let test_device_table2_shapes () =
  Alcotest.(check int) "GTX580 SMs" 16 Device.gtx580.Device.sms;
  Alcotest.(check int) "GTX580 FP units" 32 Device.gtx580.Device.fp32_lanes;
  Alcotest.(check int) "GTX8800 FP units" 8 Device.gtx8800.Device.fp32_lanes;
  Alcotest.(check int) "HD5970 SIMDs" 20 Device.hd5970.Device.sms;
  Alcotest.(check int) "i7 cores" 6 Device.core_i7.Device.sms;
  Alcotest.(check bool) "Fermi has L2" true Device.gtx580.Device.has_l2;
  Alcotest.(check bool) "G80 has no L2" false Device.gtx8800.Device.has_l2;
  Alcotest.(check bool) "peak flops ordering" true
    (Device.peak_flops Device.hd5970 > Device.peak_flops Device.gtx580
    && Device.peak_flops Device.gtx580 > Device.peak_flops Device.gtx8800)

(* One launch walk serves every placement table: the walk under a
   table's private arrays is that table's own profile, bit for bit —
   the same accesses in the same order, the same private-access sum —
   over the registry, the Fig 8 configurations and both flag settings. *)
let two_private_source =
  {|class K {
  static local float one(float x) {
    float[[]] a = K.gen @ Lime.range(4);
    float[[]] b = K.gen @ Lime.range(3);
    float s = 0.0f;
    for (int j = 0; j < 3; j++) { s += a[j] * x + b[j] + a[1] * b[2]; }
    if (x > 0.5f) { s += b[1] * a[2]; }
    return s + a[3] + b[0];
  }
  static local float gen(int j) { return (float) j; }
  static local float[[]] work(float[[]] xs) { return K.one @ xs; }
}|}

let test_walk_under_equals_profile () =
  let bits p = Marshal.to_string (p : Profile.t) [ Marshal.No_sharing ] in
  let privates = ref 0 and summed = ref 0 in
  (* with hoisting the loop-invariant reads count a third per trip, and
     63 items halve under the [if]: such counts are not whole, so the
     private accesses are summed in walk order; whole ones per array *)
  let two = kernel_of two_private_source ~worker:"K.work" in
  let launches =
    (two, [ ("xs", [| 64 |]) ], [])
    :: (two, [ ("xs", [| 63 |]) ], [])
    :: List.map
         (fun (b : B.t) ->
           let p = E.prepare ~seed:1 b in
           ( p.E.p_compiled.Lime_gpu.Pipeline.cp_kernel,
             p.E.p_shapes,
             p.E.p_scalars ))
         Lime_benchmarks.Registry.workloads
  in
  List.iter
    (fun (k, shapes, scalars) ->
      List.iter
        (fun ext ->
          let infos = Memopt.analyze ~affine_lanes:ext k in
          let walk =
            Gpusim.Autotune.profile ~hoist_invariant:ext ~affine_lanes:ext k
              infos ~shapes ~scalars
          in
          List.iter
            (fun (name, cfg) ->
              let ds = Memopt.decide_all cfg infos in
              let want =
                Profile.profile ~hoist_invariant:ext ~affine_lanes:ext k ds
                  ~shapes ~scalars
              in
              let got, _ = Gpusim.Autotune.bind k ds ~shapes walk in
              if
                List.exists
                  (fun (d : Memopt.decision) ->
                    d.Memopt.d_placement.Ir.space = Ir.MPrivate)
                  ds
              then incr privates;
              if want.Profile.p_private_accesses > 0.0 then incr summed;
              Alcotest.(check bool)
                (Printf.sprintf "%s, %s, extensions %b"
                   k.Lime_gpu.Kernel.k_name name ext)
                true
                (bits want = bits got))
            Memopt.fig8_configs)
        [ false; true ])
    launches;
  Alcotest.(check bool) "some launch has private arrays" true (!privates > 0);
  Alcotest.(check bool) "some launch reads them" true (!summed > 0);
  (* the two-private kernel's profiles as the profiler read them when it
     routed private accesses aside during the walk *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun n ->
      List.iter
        (fun ext ->
          let infos = Memopt.analyze ~affine_lanes:ext two in
          List.iter
            (fun (_, cfg) ->
              Buffer.add_string buf
                (bits
                   (Profile.profile ~hoist_invariant:ext ~affine_lanes:ext two
                      (Memopt.decide_all cfg infos)
                      ~shapes:[ ("xs", [| n |]) ]
                      ~scalars:[])))
            Memopt.fig8_configs)
        [ false; true ])
    [ 64; 63 ];
  Alcotest.(check string) "two private arrays: profiles pinned"
    "9298135c9938bf4e0cef62f5daf741f9"
    (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "gpusim"
    [
      ( "profile",
        [
          Alcotest.test_case "exact counts" `Quick test_profile_counts_exact;
          Alcotest.test_case "one walk = every table's profile" `Quick
            test_walk_under_equals_profile;
          Alcotest.test_case "matches interpreter" `Quick
            test_profile_matches_interpreter;
        ] );
      ( "model",
        [
          Alcotest.test_case "global never beats best" `Slow
            test_global_never_beats_best;
          Alcotest.test_case "Fermi flatter" `Slow test_fermi_flatter;
          Alcotest.test_case "double slower" `Quick test_double_slower;
          Alcotest.test_case "padding helps" `Quick
            test_padding_removes_conflicts;
          Alcotest.test_case "vectorization helps" `Quick
            test_vectorization_helps_global;
          Alcotest.test_case "texture best for RPES/8800" `Quick
            test_texture_best_for_rpes_8800;
          Alcotest.test_case "CPU ignores placement" `Quick
            test_cpu_device_ignores_placement;
          Alcotest.test_case "JVM slower than multicore" `Quick
            test_jvm_slower_than_multicore;
        ] );
      ( "devices",
        [ Alcotest.test_case "Table 2 parameters" `Quick test_device_table2_shapes ] );
    ]
