(* Additional qualitative properties of the device/communication models:
   monotonicity and sanity constraints that any recalibration must keep. *)

module Device = Gpusim.Device
module Profile = Gpusim.Profile
module Model = Gpusim.Model
module Comm = Lime_runtime.Comm
module M = Lime_runtime.Marshal
module E = Lime_benchmarks.Experiments
module B = Lime_benchmarks.Bench_def

let prep = lazy (E.prepare Lime_benchmarks.Nbody.single)

let test_kernel_time_scales_with_input () =
  (* 2x particles => ~4x kernel work (n^2) *)
  let time n =
    let b = Lime_benchmarks.Nbody.single in
    let c = Lime_benchmarks.Registry.compile b in
    let k = c.Lime_gpu.Pipeline.cp_kernel in
    let ds = c.cp_decisions in
    let prof = Profile.profile k ds ~shapes:[ ("particles", [| n; 4 |]) ] ~scalars:[] in
    let bindings =
      [
        Model.binding_of_shape ~name:"particles" ~elem:Lime_ir.Ir.SFloat
          ~shape:[| n; 4 |]
          (Lime_gpu.Memopt.placement_for ds "particles");
      ]
    in
    (Model.kernel_time Device.gtx580 prof bindings).Model.bd_total_s
  in
  let r = time 8192 /. time 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "quadratic scaling (got %.2f)" r)
    true
    (r > 3.0 && r < 5.0)

let test_devices_ordered_by_throughput () =
  let p = Lazy.force prep in
  let cfg = Lime_gpu.Memopt.config_local_noconflict_vector in
  let t d = E.kernel_time_under p d cfg in
  Alcotest.(check bool) "GTX580 faster than GTX8800" true
    (t Device.gtx580 < t Device.gtx8800);
  Alcotest.(check bool) "GPUs faster than the CPU" true
    (t Device.gtx580 < t Device.core_i7)

let test_comm_monotone_in_bytes () =
  let ph b =
    Comm.total
      (Comm.offload_phases Device.gtx580 ~in_bytes:b ~out_bytes:b ())
  in
  Alcotest.(check bool) "more bytes, more time" true
    (ph 1_000_000 < ph 4_000_000 && ph 4_000_000 < ph 16_000_000)

let test_setup_anomaly_threshold () =
  let small = Comm.setup_seconds (4 * 1024 * 1024) in
  let large = Comm.setup_seconds (16 * 1024 * 1024) in
  Alcotest.(check bool) "registration penalty kicks in" true
    (large > 6.0 *. small)

let test_cpu_has_no_pcie () =
  Alcotest.(check (float 0.0)) "shared memory"
    0.0
    (Comm.pcie_seconds Device.core_i7 1_000_000)

let test_profile_flags_nonaffine () =
  (* a data-dependent while loop must set p_approx *)
  let k =
    Lime_gpu.Kernel.extract
      (Lime_ir.Lower.lower_program
         (Lime_typecheck.Check.check_string
            {|class K {
  static local float f(float x) {
    float v = x;
    while (v > 1.0f) { v = v * 0.5f; }
    return v;
  }
  static local float[[]] work(float[[]] xs) { return K.f @ xs; }
}|}))
      ~worker:"K.work"
  in
  let ds = Lime_gpu.Memopt.optimize Lime_gpu.Memopt.config_global k in
  let prof = Profile.profile k ds ~shapes:[ ("xs", [| 100 |]) ] ~scalars:[] in
  Alcotest.(check bool) "approximate profile flagged" true prof.Profile.p_approx

let test_affine_profiles_exact () =
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare b in
      let prof, _ = p.E.p_launch in
      Alcotest.(check bool) (b.B.name ^ " profile exact") false
        prof.Profile.p_approx)
    Lime_benchmarks.Registry.all

let test_marshal_model_vs_reality () =
  (* the cost model's ordering must match real measured encoders *)
  let v =
    Lime_ir.Value.VArr
      (Lime_ir.Value.of_float_matrix 512 4 (Array.init 2048 float_of_int))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 200 do
      ignore (f v)
    done;
    Unix.gettimeofday () -. t0
  in
  let custom = time M.encode in
  let generic = time M.encode_generic in
  let direct = time M.encode_direct in
  Alcotest.(check bool) "generic really slower than custom" true
    (generic > custom);
  Alcotest.(check bool) "direct no slower than custom" true
    (direct < custom *. 1.5)

let () =
  Alcotest.run "model-properties"
    [
      ( "device model",
        [
          Alcotest.test_case "quadratic scaling" `Quick
            test_kernel_time_scales_with_input;
          Alcotest.test_case "device ordering" `Quick
            test_devices_ordered_by_throughput;
        ] );
      ( "communication model",
        [
          Alcotest.test_case "monotone in bytes" `Quick
            test_comm_monotone_in_bytes;
          Alcotest.test_case "setup anomaly" `Quick test_setup_anomaly_threshold;
          Alcotest.test_case "CPU no PCIe" `Quick test_cpu_has_no_pcie;
          Alcotest.test_case "marshal model vs reality" `Quick
            test_marshal_model_vs_reality;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "non-affine flagged" `Quick
            test_profile_flags_nonaffine;
          Alcotest.test_case "benchmarks exact" `Slow test_affine_profiles_exact;
        ] );
    ]
