(* Tests for lib/sched: placement specs, the pipeline probe, the cost
   model, the placement search, and multi-device execution through the
   engine.  The workhorse workload is the two-kernel N-Body pipeline
   (host gen => forces kernel => smoothing kernel => host accumulate),
   which is exactly the shape multi-device placement exists for. *)

module V = Lime_ir.Value
module Engine = Lime_runtime.Engine
module Comm = Lime_runtime.Comm
module Device = Gpusim.Device
module B = Lime_benchmarks.Bench_def
module P = Lime_sched.Placement
module Probe = Lime_sched.Probe
module Cost = Lime_sched.Cost
module Search = Lime_sched.Search
module Exec = Lime_sched.Exec

let pipe = Lime_benchmarks.Nbody_pipe.bench

let compile_pipe () =
  Lime_gpu.Pipeline.compile ~worker:pipe.B.worker pipe.B.source_small

(* Run the small pipeline through the placement-aware engine; [choose]
   picks the placement from the probed stages. *)
let run_placed ?(steps = 2) choose =
  let c = compile_pipe () in
  let _, report, decisions =
    Exec.run_program Engine.default_config ~choose
      c.Lime_gpu.Pipeline.cp_module ~cls:"NBodyPSim" ~meth:"main"
      [ V.VInt steps ]
  in
  (report, decisions)

let all_host stages ~firings:_ =
  List.map (fun st -> (st.Probe.st_task, P.Host)) stages

(* ------------------------------------------------------------------ *)
(* Placement specs                                                     *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  let spec = "A.f=gtx580,B.g=host,C.h=hd5970" in
  match P.of_spec spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check string) "roundtrip" spec (P.to_spec p);
      Alcotest.(check bool) "self equal" true (P.equal p p)

let test_spec_errors () =
  let fails s =
    match P.of_spec s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  in
  fails "";
  fails "A.f";
  fails "A.f=notadevice";
  fails "=gtx580";
  fails "A.f=gtx580,A.f=hd5970"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_spec_unknown_device_message () =
  match P.of_spec "A.f=gtx680" with
  | Error e ->
      Alcotest.(check bool) "says what it expected" true
        (contains e "unknown device" && contains e "gtx580")
  | Ok _ -> Alcotest.fail "gtx680 is not a device"

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)
(* ------------------------------------------------------------------ *)

let probed = lazy (
  let stages = ref [] in
  let _report, _ =
    run_placed (fun st ~firings ->
        stages := st;
        all_host st ~firings)
  in
  !stages)

let test_probe_shape () =
  let stages = Lazy.force probed in
  Alcotest.(check int) "four stages" 4 (List.length stages);
  Alcotest.(check (list string)) "pipeline order"
    [
      "NBodyPSim.particleGen";
      "NBodyP.computeForces";
      "NBodyP.smooth";
      "NBodyPSim.accumulate";
    ]
    (List.map (fun st -> st.Probe.st_task) stages);
  Alcotest.(check (list bool)) "offloadability"
    [ false; true; true; false ]
    (List.map (fun st -> st.Probe.st_offloadable) stages);
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (st.Probe.st_task ^ " host cost positive")
        true
        (st.Probe.st_host_s > 0.0);
      Alcotest.(check bool)
        (st.Probe.st_task ^ " profile iff offloadable")
        st.Probe.st_offloadable
        (st.Probe.st_profile <> None))
    stages;
  (* the generator's output feeds the force kernel *)
  let gen = List.nth stages 0 and forces = List.nth stages 1 in
  Alcotest.(check int) "edge bytes agree" gen.Probe.st_out_bytes
    forces.Probe.st_in_bytes

let test_probe_does_not_perturb () =
  (* the all-host placed run (which probes first) must deliver the same
     sink value as the legacy bytecode run: probing restored every task
     instance *)
  let c = compile_pipe () in
  let bytecode_cfg = { Engine.default_config with Engine.device = None } in
  let _, legacy =
    Engine.run_program bytecode_cfg c.Lime_gpu.Pipeline.cp_module
      ~cls:"NBodyPSim" ~meth:"main" [ V.VInt 2 ]
  in
  let placed, _ = run_placed all_host in
  Alcotest.(check bool) "sink value identical" true
    (V.approx_equal ~rtol:0.0 ~atol:0.0 legacy.Engine.last_value
       placed.Engine.last_value)

(* ------------------------------------------------------------------ *)
(* Search and cost model                                               *)
(* ------------------------------------------------------------------ *)

let test_search_beats_single_device () =
  (* at test scale the kernels are tiny and one device (or the host CPU
     device) is genuinely optimal; the invariant is only that the search
     never does worse than the best single device *)
  let stages = Lazy.force probed in
  let o = Search.search ~firings:16 stages in
  let _, best_single = o.Search.po_best_single in
  Alcotest.(check bool) "never worse than best single device" true
    (o.Search.po_best.Search.pc_time_s
    <= best_single.Search.pc_time_s +. 1e-12);
  Alcotest.(check bool) "exhaustive for two placeable stages" true
    o.Search.po_exhaustive

(* Probe a mid-scale pipeline without executing it: install a probing
   finish hook and run the program's main. *)
let probe_only ~n =
  let src = Lime_benchmarks.Nbody_pipe.source_for n in
  let c = Lime_gpu.Pipeline.compile ~worker:pipe.B.worker src in
  let stages = ref [] in
  let st = Lime_ir.Interp.create c.Lime_gpu.Pipeline.cp_module in
  st.Lime_ir.Interp.finish_hook <-
    (fun st' graph _iters ->
      stages := Probe.probe st'.Lime_ir.Interp.md graph);
  ignore (Lime_ir.Interp.run st ~cls:"NBodyPSim" ~meth:"main" [ V.VInt 1 ]);
  !stages

let test_search_splits_at_scale () =
  (* at n=1024 the two n² kernels dominate the transfers, and placing
     them on different devices beats the best single device strictly *)
  let stages = probe_only ~n:1024 in
  let o = Search.search ~firings:16 stages in
  let _, best_single = o.Search.po_best_single in
  Alcotest.(check bool) "strictly better than best single device" true
    (o.Search.po_best.Search.pc_time_s < best_single.Search.pc_time_s);
  let dev task =
    match List.assoc task o.Search.po_best.Search.pc_placement with
    | P.On d -> d.Device.name
    | P.Host -> "host"
  in
  let d1 = dev "NBodyP.computeForces" and d2 = dev "NBodyP.smooth" in
  Alcotest.(check bool) "forces on a device" true (d1 <> "host");
  Alcotest.(check bool) "smooth on a device" true (d2 <> "host");
  Alcotest.(check bool) "kernels split across devices" true (d1 <> d2)

(* The beam branch: the probed pipeline widened to six placeable stages
   (past the exhaustive search's limit of four) by repeating its two
   kernel stages twice more under new task names.  Golden rows pin the
   evaluation count (5 singles, which also seed the beam unpriced, 5 x 5
   children at the first level, then 8 x 5 at each of the other five),
   the chosen placement, its exact modeled time and the digest of the
   scored placement table [--explain] prints under its header line. *)
let widened ~n =
  match probe_only ~n with
  | [ gen; forces; smooth; acc ] ->
      let copy st i =
        { st with Probe.st_task = st.Probe.st_task ^ string_of_int i }
      in
      [ gen; forces; smooth; copy forces 2; copy smooth 2; copy forces 3;
        copy smooth 3; acc ]
  | stages -> Alcotest.failf "expected 4 stages, got %d" (List.length stages)

let check_beam_branch ~n ~spec ~time_h ~table_md5 () =
  let stages = widened ~n in
  let o = Search.search ~firings:16 stages in
  let best = o.Search.po_best in
  Alcotest.(check bool) "beam, not exhaustive" false o.Search.po_exhaustive;
  Alcotest.(check int) "evaluations" 230 o.Search.po_evals;
  Alcotest.(check string) "best placement" spec
    (P.to_spec best.Search.pc_placement);
  Alcotest.(check string) "best time" time_h
    (Printf.sprintf "%h" best.Search.pc_time_s);
  Alcotest.(check string) "explain table" table_md5
    (Digest.to_hex
       (Digest.string
          (Search.explain_table ~singles:o.Search.po_singles
             ~best_single:o.Search.po_best_single best)));
  let _, best_single = o.Search.po_best_single in
  Alcotest.(check bool) "never worse than best single device" true
    (best.Search.pc_time_s <= best_single.Search.pc_time_s);
  match Search.replay ~firings:16 stages best.Search.pc_placement with
  | Error e -> Alcotest.failf "best placement failed to replay: %s" e
  | Ok c ->
      Alcotest.(check (float 0.0)) "replay reproduces the searched time"
        best.Search.pc_time_s c.Search.pc_time_s

let test_search_deterministic () =
  let stages = Lazy.force probed in
  let a = Search.search ~firings:16 stages in
  let b = Search.search ~firings:16 stages in
  Alcotest.(check string) "same best spec"
    (P.to_spec a.Search.po_best.Search.pc_placement)
    (P.to_spec b.Search.po_best.Search.pc_placement);
  Alcotest.(check (float 0.0)) "same best time"
    a.Search.po_best.Search.pc_time_s b.Search.po_best.Search.pc_time_s

let test_replay_validates () =
  let stages = Lazy.force probed in
  (match Search.replay ~firings:4 stages [ ("No.Such", P.Host) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown task accepted");
  (match
     Search.replay ~firings:4 stages
       [ ("NBodyPSim.accumulate", P.On Device.gtx580) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "host-only task accepted on a device");
  match
    Search.replay ~firings:4 stages
      [ ("NBodyP.computeForces", P.On Device.gtx580) ]
  with
  | Error e -> Alcotest.failf "valid placement rejected: %s" e
  | Ok c ->
      (* unmentioned tasks default to the host *)
      Alcotest.(check int) "completed to all stages" 4
        (List.length c.Search.pc_placement);
      Alcotest.(check bool) "priced" true (c.Search.pc_time_s > 0.0)

let test_cost_zero_firings () =
  let stages = Lazy.force probed in
  let tb = Cost.table stages in
  let assigns = Array.make 4 P.Host in
  let t, _ = Cost.price ~firings:0 tb assigns in
  Alcotest.(check (float 0.0)) "zero firings cost nothing" 0.0 t

let test_cost_residency_free () =
  (* same-device adjacent kernels pay fewer transfer seconds than
     split ones: the edge between them stays resident *)
  let stages = Lazy.force probed in
  let tb = Cost.table stages in
  let mk a b = [| P.Host; a; b; P.Host |] in
  let bd assigns = snd (Cost.price ~firings:4 tb assigns) in
  let same = bd (mk (P.On Device.gtx580) (P.On Device.gtx580)) in
  let split = bd (mk (P.On Device.gtx580) (P.On Device.hd5970)) in
  Alcotest.(check bool) "resident edge is cheaper" true
    (same.Cost.cb_transfer_s < split.Cost.cb_transfer_s)

(* ------------------------------------------------------------------ *)
(* Multi-device execution                                              *)
(* ------------------------------------------------------------------ *)

let searched stages ~firings =
  (Search.search ~firings stages).Search.po_best.Search.pc_placement

let test_placed_run_bit_exact () =
  (* a multi-device run delivers exactly the single-device sink value *)
  let c = compile_pipe () in
  let _, legacy =
    Engine.run_program Engine.default_config c.Lime_gpu.Pipeline.cp_module
      ~cls:"NBodyPSim" ~meth:"main" [ V.VInt 2 ]
  in
  let placed, decisions = run_placed searched in
  Alcotest.(check bool) "sink bit-exact" true
    (V.approx_equal ~rtol:0.0 ~atol:0.0 legacy.Engine.last_value
       placed.Engine.last_value);
  (* the engine's ground-truth placements match the decision *)
  (match decisions with
  | [ d ] ->
      Alcotest.(check int) "one decision, four stages" 4
        (List.length d.Exec.dc_placement);
      let want = P.to_engine d.Exec.dc_placement in
      List.iter2
        (fun (wt, wd) (gt, gd) ->
          Alcotest.(check string) "task order" wt gt;
          Alcotest.(check (option string)) (wt ^ " device")
            (Option.map (fun d -> d.Device.name) wd)
            (Option.map (fun d -> d.Device.name) gd))
        want placed.Engine.placements
  | ds -> Alcotest.failf "expected one decision, got %d" (List.length ds));
  Alcotest.(check int) "two firings" 2 placed.Engine.firings

let test_placed_run_attributes_devices () =
  (* firing_info carries the per-stage device of a placed run *)
  let seen = Hashtbl.create 8 in
  Lime_support.Hooks.add Engine.firing_hooks ~key:"test-sched" (fun fi ->
      let dev =
        match fi.Engine.fi_dev with
        | Some d -> d.Device.name
        | None -> "host"
      in
      Hashtbl.replace seen fi.Engine.fi_task dev);
  Fun.protect
    ~finally:(fun () ->
      Lime_support.Hooks.remove Engine.firing_hooks "test-sched")
  @@ fun () ->
  let _, decisions = run_placed searched in
  let d = List.hd decisions in
  List.iter
    (fun (task, a) ->
      let want =
        match a with P.Host -> "host" | P.On d -> d.Device.name
      in
      match Hashtbl.find_opt seen task with
      | None -> Alcotest.failf "no firing observed for %s" task
      | Some got -> Alcotest.(check string) (task ^ " fired on") want got)
    d.Exec.dc_placement

(* The engine's overlap clock is the cost model, bit for bit: for every
   placement of the two kernels (host or one of the four devices each) and
   both the custom and the direct serializer, a placed run's
   [overlapped_s] equals [Cost.price] over the run's own probe. *)
let test_engine_clock_is_model () =
  let options = P.Host :: List.map (fun (_, d) -> P.On d) P.devices in
  let c = compile_pipe () in
  List.iter
    (fun serializer ->
      List.iter
        (fun forces ->
          List.iter
            (fun smooth ->
              let fixed stages ~firings:_ =
                List.map
                  (fun st ->
                    ( st.Probe.st_task,
                      match st.Probe.st_task with
                      | "NBodyP.computeForces" -> forces
                      | "NBodyP.smooth" -> smooth
                      | _ -> P.Host ))
                  stages
              in
              let _, report, decisions =
                Exec.run_program
                  { Engine.default_config with Engine.serializer }
                  ~choose:fixed c.Lime_gpu.Pipeline.cp_module ~cls:"NBodyPSim"
                  ~meth:"main" [ V.VInt 6 ]
              in
              let d = List.hd decisions in
              let model_s, _ =
                Cost.price ~firings:6 (Cost.table d.Exec.dc_stages)
                  (Array.of_list (List.map snd d.Exec.dc_placement))
              in
              let got = report.Engine.overlapped_s in
              let name =
                Printf.sprintf "%s %s: engine %h = model %h"
                  (match serializer with
                  | Lime_runtime.Marshal.Custom -> "custom"
                  | Lime_runtime.Marshal.Generic -> "generic"
                  | Lime_runtime.Marshal.Direct -> "direct")
                  (P.to_spec d.Exec.dc_placement) got model_s
              in
              Alcotest.(check bool) name true (got = model_s);
              Alcotest.(check bool) "overlap no slower than serial clock" true
                (got <= Comm.total report.Engine.phases))
            options)
        options)
    [ Lime_runtime.Marshal.Custom; Lime_runtime.Marshal.Direct ]

(* ------------------------------------------------------------------ *)
(* Comm boundary cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_pcie_zero_bytes () =
  (* a zero-byte transfer still pays the DMA latency floor... *)
  Alcotest.(check (float 1e-12)) "latency floor" 8.0e-6
    (Comm.pcie_seconds Device.gtx580 0);
  (* ...except on the host device, whose "link" is the cache *)
  Alcotest.(check (float 0.0)) "host device free" 0.0
    (Comm.pcie_seconds Device.core_i7 0)

let test_pcie_host_only_device () =
  (* corei7 models host execution: no PCIe at any size *)
  List.iter
    (fun bytes ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "corei7 %d bytes" bytes)
        0.0
        (Comm.pcie_seconds Device.core_i7 bytes))
    [ 0; 1; 4096; 64 * 1024 * 1024 ]

let test_pcie_monotone () =
  let d = Device.gtx8800 in
  Alcotest.(check bool) "more bytes, more time" true
    (Comm.pcie_seconds d (1 lsl 20) < Comm.pcie_seconds d (1 lsl 24))

let test_transfer_pair_equals_offload () =
  (* offload_phases is exactly an up-transfer plus a down-transfer, even
     when the two directions are asymmetric *)
  let d = Device.gtx580 in
  let in_bytes = 1 lsl 20 and out_bytes = 3 * 1024 in
  let off = Comm.offload_phases d ~elem_bytes:4 ~in_bytes ~out_bytes () in
  let up = Comm.transfer_phases d ~elem_bytes:4 ~bytes:in_bytes () in
  let down = Comm.transfer_phases d ~elem_bytes:4 ~bytes:out_bytes () in
  Alcotest.(check (float 1e-12)) "totals add" (Comm.total off)
    (Comm.total up +. Comm.total down);
  Alcotest.(check (float 1e-12)) "pcie adds" off.Comm.pcie_s
    (up.Comm.pcie_s +. down.Comm.pcie_s);
  Alcotest.(check bool) "asymmetric directions differ" true
    (Comm.total up > Comm.total down)

let test_transfer_zero_bytes () =
  let d = Device.gtx580 in
  let p = Comm.transfer_phases d ~elem_bytes:4 ~bytes:0 () in
  Alcotest.(check (float 1e-12)) "pcie is the latency floor"
    (Comm.pcie_seconds d 0) p.Comm.pcie_s;
  Alcotest.(check bool) "no kernel, no host work" true
    (p.Comm.kernel_s = 0.0 && p.Comm.host_s = 0.0)

let () =
  Alcotest.run "sched"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "unknown device" `Quick
            test_spec_unknown_device_message;
        ] );
      ( "probe",
        [
          Alcotest.test_case "shape" `Quick test_probe_shape;
          Alcotest.test_case "no perturbation" `Quick
            test_probe_does_not_perturb;
        ] );
      ( "search",
        [
          Alcotest.test_case "beats single device" `Quick
            test_search_beats_single_device;
          Alcotest.test_case "splits at scale" `Slow
            test_search_splits_at_scale;
          Alcotest.test_case "deterministic" `Quick test_search_deterministic;
          Alcotest.test_case "beam branch, n = 16" `Quick
            (check_beam_branch ~n:16
               ~spec:
                 "NBodyPSim.particleGen=host,NBodyP.computeForces=host,\
                  NBodyP.smooth=host,NBodyP.computeForces2=host,\
                  NBodyP.smooth2=host,NBodyP.computeForces3=host,\
                  NBodyP.smooth3=host,NBodyPSim.accumulate=host"
               ~time_h:"0x1.97d3945648e9fp-12"
               ~table_md5:"b78a8c24ac91dee6e14107f04e246676");
          Alcotest.test_case "beam branch, n = 1024" `Slow
            (check_beam_branch ~n:1024
               ~spec:
                 "NBodyPSim.particleGen=host,NBodyP.computeForces=hd5970,\
                  NBodyP.smooth=gtx580,NBodyP.computeForces2=hd5970,\
                  NBodyP.smooth2=hd5970,NBodyP.computeForces3=gtx580,\
                  NBodyP.smooth3=gtx580,NBodyPSim.accumulate=host"
               ~time_h:"0x1.3862eca3a316dp-8"
               ~table_md5:"9d0bab3cb6b4e583e1a337938083fe3d");
          Alcotest.test_case "replay validates" `Quick test_replay_validates;
          Alcotest.test_case "zero firings" `Quick test_cost_zero_firings;
          Alcotest.test_case "residency" `Quick test_cost_residency_free;
        ] );
      ( "exec",
        [
          Alcotest.test_case "bit-exact sink" `Quick test_placed_run_bit_exact;
          Alcotest.test_case "per-device attribution" `Quick
            test_placed_run_attributes_devices;
          Alcotest.test_case "engine clock = model" `Quick
            test_engine_clock_is_model;
        ] );
      ( "comm",
        [
          Alcotest.test_case "pcie zero bytes" `Quick test_pcie_zero_bytes;
          Alcotest.test_case "host-only device" `Quick
            test_pcie_host_only_device;
          Alcotest.test_case "pcie monotone" `Quick test_pcie_monotone;
          Alcotest.test_case "transfer pair = offload" `Quick
            test_transfer_pair_equals_offload;
          Alcotest.test_case "zero-byte transfer" `Quick
            test_transfer_zero_bytes;
        ] );
    ]
