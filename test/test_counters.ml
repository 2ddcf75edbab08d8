(* Simulated hardware counters: invariants the counter record must keep,
   the 1e-6 consistency between the counters and the timing breakdown
   they were accumulated alongside, the golden report rendering, and the
   BENCH JSON round-trip + regression diff. *)

module Device = Gpusim.Device
module Profile = Gpusim.Profile
module Model = Gpusim.Model
module Counters = Gpusim.Counters
module E = Lime_benchmarks.Experiments
module B = Lime_benchmarks.Bench_def
module J = Lime_benchmarks.Benchjson

let rel_close ?(tol = 1e-6) a b =
  a = b || Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

let check_close name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%.12g vs %.12g)" name a b)
    true (rel_close a b)

(* ------------------------------------------------------------------ *)
(* Reconstruction: every second the breakdown charges must be the       *)
(* product of a counter and a device cost parameter.  This recomputes   *)
(* the whole breakdown from the raw counts alone.                       *)
(* ------------------------------------------------------------------ *)

let reconstruct (d : Device.t) (c : Counters.t) =
  let clock = d.Device.clock_ghz *. 1e9 in
  let lanes = float_of_int (d.Device.sms * d.Device.fp32_lanes) in
  let compute =
    match d.Device.kind with
    | Device.Gpu -> c.Counters.ct_issue_cycles /. (lanes *. clock)
    | Device.Cpu ->
        let ht =
          1.0 +. ((float_of_int d.Device.threads_per_core -. 1.0) *. 0.06)
        in
        (c.Counters.ct_issue_cycles +. (c.Counters.ct_access_slots *. 1.2))
        /. (float_of_int d.Device.sms *. 0.85 *. ht *. clock)
  in
  let bw = d.Device.global_bw_gbs *. 1e9 in
  let global =
    (c.Counters.ct_bytes_global /. bw)
    +. (c.Counters.ct_gslot_cycles /. (lanes *. clock))
  in
  let lat =
    c.Counters.ct_lat_tx *. d.Device.global_lat_cycles
    /. (float_of_int (d.Device.sms * d.Device.inflight_warps) *. clock)
  in
  let local =
    (c.Counters.ct_local_accesses +. c.Counters.ct_bank_replays)
    *. d.Device.local_cost /. (lanes *. clock)
  in
  let constant =
    ((c.Counters.ct_const_broadcast *. d.Device.const_cost)
    +. (c.Counters.ct_const_serialized *. float_of_int d.Device.warp *. 0.5))
    /. (lanes *. clock)
  in
  let image =
    c.Counters.ct_tex_fetches *. d.Device.tex_cost /. (lanes *. clock)
  in
  let launch = d.Device.launch_overhead_us *. 1e-6 in
  let reduce =
    if c.Counters.ct_reduce_elems > 0.0 then
      (c.Counters.ct_reduce_elems /. (lanes *. clock)) +. launch
    else 0.0
  in
  let total =
    Float.max compute (global +. local +. constant +. image)
    +. lat +. launch +. reduce
  in
  (compute, global, lat, local, constant, image, total)

let check_counters name (d : Device.t) (bd : Model.breakdown)
    (c : Counters.t) =
  let open Counters in
  let chk label cond =
    Alcotest.(check bool) (Printf.sprintf "%s: %s" name label) true cond
  in
  (* basic invariants *)
  chk "occupancy in (0,1]" (c.ct_occupancy > 0.0 && c.ct_occupancy <= 1.0);
  chk "warps positive" (c.ct_warps > 0.0);
  chk "cache hits nonneg" (c.ct_cache_hits >= 0.0);
  chk "cache misses nonneg" (c.ct_cache_misses >= 0.0);
  chk "tex hits <= fetches"
    (c.ct_tex_hits <= c.ct_tex_fetches +. 1e-9);
  chk "coalesced+uncoalesced = total"
    (rel_close ~tol:1e-9 (c.ct_gtx_coalesced +. c.ct_gtx_uncoalesced)
       c.ct_gtx_total);
  chk "counts nonneg"
    (List.for_all
       (fun v -> v >= 0.0)
       [
         c.ct_gtx_coalesced; c.ct_gtx_uncoalesced; c.ct_bytes_global;
         c.ct_gslot_cycles; c.ct_lat_tx; c.ct_local_accesses;
         c.ct_bank_replays; c.ct_bytes_local; c.ct_const_broadcast;
         c.ct_const_serialized; c.ct_bytes_constant; c.ct_tex_fetches;
         c.ct_bytes_image; c.ct_flops; c.ct_issue_cycles;
       ]);
  (* the seconds the counters carry are the breakdown's, verbatim *)
  check_close (name ^ ": ct_total = bd_total") c.ct_total_s bd.Model.bd_total_s;
  check_close (name ^ ": ct_compute = bd_compute") c.ct_compute_s
    bd.Model.bd_compute_s;
  check_close (name ^ ": global+latency = bd_global")
    (c.ct_global_s +. c.ct_latency_s)
    bd.Model.bd_global_s;
  check_close (name ^ ": ct_local = bd_local") c.ct_local_s bd.Model.bd_local_s;
  (* full reconstruction from the raw counts, 1e-6 relative *)
  let compute, global, lat, local, constant, image, total = reconstruct d c in
  check_close (name ^ ": reconstructed compute") compute bd.Model.bd_compute_s;
  check_close (name ^ ": reconstructed global+lat") (global +. lat)
    bd.Model.bd_global_s;
  check_close (name ^ ": reconstructed local") local bd.Model.bd_local_s;
  check_close (name ^ ": reconstructed constant") constant
    bd.Model.bd_constant_s;
  check_close (name ^ ": reconstructed image") image bd.Model.bd_image_s;
  check_close (name ^ ": reconstructed total") total bd.Model.bd_total_s

(* every registry benchmark x every device, under the shipped best
   config; the counters Experiments.endtoend carries (priced once from
   the prepared launch) are Autotune.time_config_ex's for that config *)
let test_registry_consistency () =
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare ~quick:true b in
      let prof, bindings = p.E.p_launch in
      let k = p.E.p_compiled.Lime_gpu.Pipeline.cp_kernel in
      List.iter
        (fun (d : Device.t) ->
          let name = Printf.sprintf "%s/%s" b.B.name d.Device.name in
          let bd, c = Model.kernel_time_ex d prof bindings in
          check_counters name d bd c;
          let _, c' =
            Gpusim.Autotune.time_config_ex d k b.B.best_config
              ~shapes:p.E.p_shapes ~scalars:p.E.p_scalars
          in
          Alcotest.(check bool) (name ^ ": endtoend's counters") true
            (compare (E.endtoend p d).E.ee_counters c' = 0))
        Device.all)
    Lime_benchmarks.Registry.all

(* every registry workload x --config x device: the launch limec
   --estimate/--counters prices (the compiled placements) is the sweep's —
   breakdown and counters equal to Autotune.time_config_ex's — and it
   keeps the counter invariants.  For the eight Fig 8 configs the
   Autotune.sweep entry, priced from one shared analysis, carries the
   same breakdown and counters. *)
let test_grid_agrees_with_sweep () =
  List.iter
    (fun (b : B.t) ->
      let input = b.B.input_small () in
      let sweeps = Hashtbl.create 4 in
      List.iter
        (fun (cname, cfg) ->
          let c = Lime_benchmarks.Registry.compile_small ~config:cfg b in
          let k = c.Lime_gpu.Pipeline.cp_kernel in
          let shapes, _ = Lime_runtime.Engine.shapes_of_args k [ input ] in
          let prof, bindings =
            Gpusim.Autotune.launch k c.Lime_gpu.Pipeline.cp_decisions ~shapes
              ~scalars:[]
          in
          List.iter
            (fun (d : Device.t) ->
              let name =
                Printf.sprintf "%s/%s/%s" b.B.name cname d.Device.name
              in
              let bd, c = Model.kernel_time_ex d prof bindings in
              let bd', c' =
                Gpusim.Autotune.time_config_ex d k cfg ~shapes ~scalars:[]
              in
              Alcotest.(check bool) (name ^ ": sweep's breakdown") true
                (compare bd bd' = 0);
              Alcotest.(check bool) (name ^ ": sweep's counters") true
                (compare c c' = 0);
              let sweep =
                match Hashtbl.find_opt sweeps d.Device.name with
                | Some s -> s
                | None ->
                    let s = Gpusim.Autotune.sweep d k ~shapes ~scalars:[] in
                    Hashtbl.replace sweeps d.Device.name s;
                    s
              in
              (* every config but "all" is one of the eight *)
              Option.iter
                (fun (e : Gpusim.Autotune.entry) ->
                  Alcotest.(check bool) (name ^ ": Autotune.sweep breakdown")
                    true
                    (compare e.at_breakdown bd' = 0);
                  Alcotest.(check bool) (name ^ ": Autotune.sweep counters")
                    true
                    (compare e.at_counters c' = 0))
                (List.find_opt
                   (fun e -> e.Gpusim.Autotune.at_config = cfg)
                   sweep);
              check_counters name d bd c)
            Device.all)
        Lime_server.Server.configs)
    Lime_benchmarks.Registry.workloads

(* every registry workload x the eight Fig 8 configs x device: the
   breakdown-only price is the counters pass's breakdown, bit for bit *)
let test_kernel_time_is_ex () =
  List.iter
    (fun (b : B.t) ->
      let c = Lime_benchmarks.Registry.compile_small b in
      let k = c.Lime_gpu.Pipeline.cp_kernel in
      let shapes, _ =
        Lime_runtime.Engine.shapes_of_args k [ b.B.input_small () ]
      in
      List.iter
        (fun (cname, cfg) ->
          let prof, bindings =
            Gpusim.Autotune.launch k (Lime_gpu.Memopt.optimize cfg k) ~shapes
              ~scalars:[]
          in
          List.iter
            (fun (d : Device.t) ->
              let bits bd = Marshal.to_string (bd : Model.breakdown) [] in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s" b.B.name cname d.Device.name)
                (bits (fst (Model.kernel_time_ex d prof bindings)))
                (bits (Model.kernel_time d prof bindings)))
            Device.all)
        Lime_gpu.Memopt.fig8_configs)
    Lime_benchmarks.Registry.workloads

(* every registry workload x the nine configs, on the launch shapes
   above: the placement table, the launch profile (both extensions off,
   then both on) and the generated OpenCL, pinned as one digest — the
   optimizer, the profiler and the printer must agree on every access
   class and view root *)
let access_analysis_digest = "11fc736af5c9e2a1df6e3f643dfefb58"

let test_access_analysis_pin () =
  let b = Buffer.create (1 lsl 16) in
  let configs =
    Lime_gpu.Memopt.fig8_configs @ [ ("All", Lime_gpu.Memopt.config_all) ]
  in
  List.iter
    (fun (w : B.t) ->
      let input = w.B.input_small () in
      List.iter
        (fun (cname, cfg) ->
          let c = Lime_benchmarks.Registry.compile_small ~config:cfg w in
          let k = c.Lime_gpu.Pipeline.cp_kernel in
          let ds = c.Lime_gpu.Pipeline.cp_decisions in
          let shapes, _ = Lime_runtime.Engine.shapes_of_args k [ input ] in
          let profile ext =
            let prof, _ =
              Gpusim.Autotune.launch ~hoist_invariant:ext ~affine_lanes:ext k
                ds ~shapes ~scalars:[]
            in
            Profile.to_string prof
          in
          Printf.bprintf b "== %s / %s\n%s\n%s%s%s" w.B.name cname
            (Lime_gpu.Memopt.describe ds)
            (profile false) (profile true) c.Lime_gpu.Pipeline.cp_opencl)
        configs)
    Lime_benchmarks.Registry.workloads;
  Alcotest.(check string) "digest" access_analysis_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* QCheck: the invariants hold across random shapes, devices and        *)
(* memory configurations, not just the shipped best configs.            *)
(* ------------------------------------------------------------------ *)

let nbody_kernel =
  lazy
    (let c = Lime_benchmarks.Registry.compile Lime_benchmarks.Nbody.single in
     c.Lime_gpu.Pipeline.cp_kernel)

let configs =
  [
    Lime_gpu.Memopt.config_global;
    Lime_gpu.Memopt.config_constant;
    Lime_gpu.Memopt.config_local_noconflict_vector;
    Lime_gpu.Memopt.config_image;
  ]

let gen_case =
  QCheck.Gen.(
    triple (int_range 32 16384)
      (int_range 0 (List.length Device.all - 1))
      (int_range 0 (List.length configs - 1)))

let arb_case =
  QCheck.make gen_case ~print:(fun (n, di, ci) ->
      Printf.sprintf "n=%d device=%d config=%d" n di ci)

let qcheck_invariants =
  Testutil.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"counter invariants under random cases"
       arb_case (fun (n, di, ci) ->
         let k = Lazy.force nbody_kernel in
         let d = List.nth Device.all di in
         let cfg = List.nth configs ci in
         let ds = Lime_gpu.Memopt.optimize cfg k in
         let shapes = [ ("particles", [| n; 4 |]) ] in
         let prof = Profile.profile k ds ~shapes ~scalars:[] in
         let bindings =
           [
             Model.binding_of_shape ~name:"particles" ~elem:Lime_ir.Ir.SFloat
               ~shape:[| n; 4 |]
               (Lime_gpu.Memopt.placement_for ds "particles");
           ]
         in
         let bd, c = Model.kernel_time_ex d prof bindings in
         let open Counters in
         let _, _, _, _, _, _, total = reconstruct d c in
         c.ct_occupancy > 0.0
         && c.ct_occupancy <= 1.0
         && rel_close ~tol:1e-9
              (c.ct_gtx_coalesced +. c.ct_gtx_uncoalesced)
              c.ct_gtx_total
         && c.ct_tex_hits <= c.ct_tex_fetches +. 1e-9
         && c.ct_cache_hits >= 0.0
         && c.ct_cache_misses >= 0.0
         && rel_close total bd.Model.bd_total_s
         && rel_close c.ct_total_s bd.Model.bd_total_s))

(* classify/limiter sanity on hand-built extremes *)
let base =
  {
    Counters.ct_device = "test";
    ct_peak_bw = 100e9;
    ct_peak_flops = 1e12;
    ct_items = 1024.0;
    ct_work_groups = 4.0;
    ct_warps = 32.0;
    ct_occupancy = 0.5;
    ct_flops = 1e6;
    ct_issue_cycles = 1e6;
    ct_access_slots = 0.0;
    ct_reduce_elems = 0.0;
    ct_gtx_total = 10.0;
    ct_gtx_coalesced = 10.0;
    ct_gtx_uncoalesced = 0.0;
    ct_bytes_global = 1e5;
    ct_gslot_cycles = 0.0;
    ct_lat_tx = 0.0;
    ct_cache_hits = 0.0;
    ct_cache_misses = 0.0;
    ct_local_accesses = 0.0;
    ct_bank_replays = 0.0;
    ct_bytes_local = 0.0;
    ct_const_broadcast = 0.0;
    ct_const_serialized = 0.0;
    ct_bytes_constant = 0.0;
    ct_tex_fetches = 0.0;
    ct_tex_hits = 0.0;
    ct_tex_misses = 0.0;
    ct_bytes_image = 0.0;
    ct_compute_s = 1e-3;
    ct_global_s = 1e-4;
    ct_local_s = 0.0;
    ct_constant_s = 0.0;
    ct_image_s = 0.0;
    ct_latency_s = 0.0;
    ct_launch_s = 1e-5;
    ct_reduce_s = 0.0;
    ct_total_s = 1.11e-3;
  }

let test_classify () =
  let open Counters in
  Alcotest.(check string)
    "compute-bound" "compute-bound"
    (roofline_name (classify base));
  Alcotest.(check string)
    "memory-bound" "memory-bound"
    (roofline_name (classify { base with ct_global_s = 2e-3 }));
  Alcotest.(check string)
    "latency-bound" "latency-bound"
    (roofline_name (classify { base with ct_latency_s = 5e-3 }));
  Alcotest.(check string) "limiter compute" "compute" (limiter base);
  Alcotest.(check string)
    "limiter local" "local-memory"
    (limiter { base with ct_local_s = 0.5 })

let test_add () =
  let open Counters in
  let a = base in
  let b = { base with ct_warps = 96.0; ct_occupancy = 1.0 } in
  let s = add a b in
  Alcotest.(check (float 1e-9)) "warps sum" 128.0 s.ct_warps;
  Alcotest.(check (float 1e-9))
    "occupancy warp-weighted"
    ((0.5 *. 32.0 +. 1.0 *. 96.0) /. 128.0)
    s.ct_occupancy;
  Alcotest.(check (float 1e-9)) "flops sum" 2e6 s.ct_flops;
  Alcotest.(check string) "device kept" "test" s.ct_device;
  Alcotest.(check string) "mixed devices" "<mixed>"
    (add a { b with ct_device = "other" }).ct_device

(* ------------------------------------------------------------------ *)
(* Golden report                                                        *)
(* ------------------------------------------------------------------ *)

let test_report_golden () =
  let k = Lazy.force nbody_kernel in
  let ds =
    Lime_gpu.Memopt.optimize Lime_benchmarks.Nbody.single.B.best_config k
  in
  let shapes = [ ("particles", [| 1024; 4 |]) ] in
  let prof = Profile.profile k ds ~shapes ~scalars:[] in
  let bindings =
    [
      Model.binding_of_shape ~name:"particles" ~elem:Lime_ir.Ir.SFloat
        ~shape:[| 1024; 4 |]
        (Lime_gpu.Memopt.placement_for ds "particles");
    ]
  in
  let _, c = Model.kernel_time_ex Device.gtx8800 prof bindings in
  let actual = Counters.report c in
  let golden =
    "hardware counters \xe2\x80\x94 NVidia GeForce GTX 8800\n\
    \  work items                           1024\n\
    \  work groups                             4\n\
    \  warps launched                         32\n\
    \  occupancy                            0.12\n\
    \  global memory:\n\
    \    transactions                       2048  (coalesced 2048, uncoalesced 0)\n\
    \    bytes moved                       256KB\n\
    \    cache hits                            0  (0 misses)\n\
    \    latency-exposed tx                    0\n\
    \  local memory:\n\
    \    accesses                    2.88461e+06\n\
    \    bank-conflict replays                 0\n\
    \  constant memory:\n\
    \    broadcast reads                       0  (0 serialized)\n\
    \  image:\n\
    \    texture fetches                       0  (0 hits, 0 misses)\n\
    \  time attribution (s):\n\
    \    compute                       0.0003095   96.3%\n\
    \    global                        3.034e-06    0.9%\n\
    \    local                         1.669e-05    5.2%\n\
    \    constant                              0    0.0%\n\
    \    image                                 0    0.0%\n\
    \    latency                               0    0.0%\n\
    \    launch+reduce                   1.2e-05    3.7%\n\
     roofline: compute-bound (limited by compute)\n\
    \  arithmetic intensity                   80 flop/byte\n\
    \  achieved bandwidth            0.8154 GB/s of 86.4 peak  (0.9%)\n\
    \  achieved compute               65.24 GFLOP/s of 172.8 peak  (37.8%)\n"
  in
  Alcotest.(check string) "nbody/gtx8800 report" golden actual

(* ------------------------------------------------------------------ *)
(* BENCH JSON: round-trip and regression diff                           *)
(* ------------------------------------------------------------------ *)

let quick_run = lazy (J.collect ~quick:true ~seed:1 ~name:"roundtrip" ())

let test_json_roundtrip () =
  let run = Lazy.force quick_run in
  Alcotest.(check bool) "has entries" true (List.length run.J.r_entries > 0);
  match J.of_json (J.to_json run) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok run' ->
      Alcotest.(check string) "name" run.J.r_name run'.J.r_name;
      Alcotest.(check bool) "quick" run.J.r_quick run'.J.r_quick;
      Alcotest.(check int) "seed" run.J.r_seed run'.J.r_seed;
      Alcotest.(check int) "entry count"
        (List.length run.J.r_entries)
        (List.length run'.J.r_entries);
      List.iter2
        (fun (e : J.entry) (e' : J.entry) ->
          let close l a b =
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s %s" e.J.e_bench e.J.e_device l)
              true
              (rel_close ~tol:1e-8 a b)
          in
          Alcotest.(check string) "bench" e.J.e_bench e'.J.e_bench;
          Alcotest.(check string) "device" e.J.e_device e'.J.e_device;
          Alcotest.(check string) "roofline" e.J.e_roofline e'.J.e_roofline;
          close "time" e.J.e_time_s e'.J.e_time_s;
          close "kernel" e.J.e_kernel_s e'.J.e_kernel_s;
          close "speedup" e.J.e_speedup e'.J.e_speedup;
          close "occupancy" e.J.e_occupancy e'.J.e_occupancy;
          close "bank_replays" e.J.e_bank_replays e'.J.e_bank_replays;
          close "intensity" e.J.e_intensity e'.J.e_intensity)
        run.J.r_entries run'.J.r_entries

let test_json_rejects_bad () =
  (match J.of_json "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON");
  (match
     J.of_json
       {|{"schema": "other", "version": 1, "name": "x", "quick": false, "seed": 1, "results": []}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong schema name");
  match
    J.of_json
      {|{"schema": "lime-bench", "version": 99, "name": "x", "quick": false, "seed": 1, "results": []}|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a future schema version"

let entry b d t =
  {
    J.e_bench = b;
    e_device = d;
    e_time_s = t;
    e_kernel_s = t /. 2.0;
    e_speedup = 1.0;
    e_occupancy = 0.5;
    e_bank_replays = 0.0;
    e_intensity = 1.0;
    e_roofline = "memory-bound";
  }

let mkrun entries =
  { J.r_name = "t"; r_quick = true; r_seed = 1; r_entries = entries }

let test_diff_regressions () =
  let baseline = mkrun [ entry "a" "d1" 1.0; entry "b" "d1" 1.0 ] in
  (* identical: clean *)
  Alcotest.(check int) "self-diff clean" 0
    (List.length (J.diff ~baseline ~current:baseline ()));
  (* within threshold: clean *)
  let slight = mkrun [ entry "a" "d1" 1.05; entry "b" "d1" 1.0 ] in
  Alcotest.(check int) "5% within 10% threshold" 0
    (List.length (J.diff ~baseline ~current:slight ()));
  (* injected synthetic regression: one entry 1.5x slower *)
  let slower = mkrun [ entry "a" "d1" 1.5; entry "b" "d1" 1.0 ] in
  (match J.diff ~baseline ~current:slower () with
  | [ { J.rg_bench = "a"; rg_device = "d1"; rg_kind = `Slower r } ] ->
      Alcotest.(check bool) "ratio ~1.5" true (rel_close ~tol:1e-9 r 1.5)
  | regs ->
      Alcotest.failf "expected one Slower regression, got %d"
        (List.length regs));
  (* missing entry *)
  let missing = mkrun [ entry "a" "d1" 1.0 ] in
  (match J.diff ~baseline ~current:missing () with
  | [ { J.rg_bench = "b"; rg_kind = `Missing; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Missing regression");
  (* faster + brand-new entries are not regressions *)
  let better =
    mkrun [ entry "a" "d1" 0.5; entry "b" "d1" 1.0; entry "c" "d1" 9.0 ]
  in
  Alcotest.(check int) "improvements are clean" 0
    (List.length (J.diff ~baseline ~current:better ()));
  (* custom threshold *)
  Alcotest.(check int) "tighter threshold catches 5%" 1
    (List.length (J.diff ~threshold:0.01 ~baseline ~current:slight ()))

(* the CLI: an injected regression must make --baseline exit nonzero *)
let bench_exe =
  List.find_opt Sys.file_exists
    [ "../bench/main.exe"; "bench/main.exe"; "_build/default/bench/main.exe" ]

let test_cli_baseline_regression () =
  match bench_exe with
  | None -> Alcotest.skip ()
  | Some exe ->
      (* doctor a baseline claiming everything used to be 10x faster *)
      let run = Lazy.force quick_run in
      let doctored =
        {
          run with
          J.r_entries =
            List.map
              (fun (e : J.entry) ->
                { e with J.e_time_s = e.J.e_time_s /. 10.0 })
              run.J.r_entries;
        }
      in
      let file = Filename.temp_file "bench_baseline" ".json" in
      J.write_file file doctored;
      let out = Filename.temp_file "bench" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "%s --quick --seed 1 --baseline %s > %s 2>&1"
             (Filename.quote exe) (Filename.quote file) (Filename.quote out))
      in
      let text = In_channel.with_open_text out In_channel.input_all in
      Sys.remove file;
      Sys.remove out;
      Alcotest.(check int) "regression exit code" 1 code;
      Alcotest.(check bool) "regressions reported" true
        (Lime_support.Util.contains_substring ~sub:"regression" text)

let () =
  Alcotest.run "counters"
    [
      ( "consistency",
        [
          Alcotest.test_case "registry x devices, 1e-6" `Quick
            test_registry_consistency;
          Alcotest.test_case "workload x config x device agrees with sweep"
            `Quick test_grid_agrees_with_sweep;
          Alcotest.test_case "access analysis digest, workload x config"
            `Quick test_access_analysis_pin;
          qcheck_invariants;
          Alcotest.test_case "kernel_time = fst kernel_time_ex, bit for bit"
            `Quick test_kernel_time_is_ex;
        ] );
      ( "derived",
        [
          Alcotest.test_case "roofline classify + limiter" `Quick test_classify;
          Alcotest.test_case "aggregation" `Quick test_add;
          Alcotest.test_case "golden report" `Quick test_report_golden;
        ] );
      ( "bench json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects bad input" `Quick test_json_rejects_bad;
          Alcotest.test_case "regression diff" `Quick test_diff_regressions;
          Alcotest.test_case "--baseline exits nonzero" `Slow
            test_cli_baseline_regression;
        ] );
    ]
