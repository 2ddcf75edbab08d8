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

let test_overlapped_clock_matches_model () =
  (* the engine's overlapped wall-clock agrees with the cost model's
     fill + (n-1)*period makespan on a pinned split placement *)
  let fixed stages ~firings:_ =
    List.map
      (fun st ->
        ( st.Probe.st_task,
          match st.Probe.st_task with
          | "NBodyP.computeForces" -> P.On Device.gtx580
          | "NBodyP.smooth" -> P.On Device.hd5970
          | _ -> P.Host ))
      stages
  in
  let report, decisions = run_placed ~steps:6 fixed in
  let d = List.hd decisions in
  let tb = Cost.table d.Exec.dc_stages in
  let assigns =
    Array.of_list (List.map snd d.Exec.dc_placement)
  in
  let model_s, _ = Cost.price ~firings:6 tb assigns in
  let got = report.Engine.overlapped_s in
  Alcotest.(check bool) "overlap clock positive" true (got > 0.0);
  let rel = Float.abs (got -. model_s) /. model_s in
  Alcotest.(check bool)
    (Printf.sprintf "engine %.3e vs model %.3e within 2%% (rel %.4f)" got
       model_s rel)
    true (rel < 0.02);
  Alcotest.(check bool) "overlap no slower than serial clock" true
    (got <= Comm.total report.Engine.phases +. 1e-9)

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
          Alcotest.test_case "replay validates" `Quick test_replay_validates;
          Alcotest.test_case "zero firings" `Quick test_cost_zero_firings;
          Alcotest.test_case "residency" `Quick test_cost_residency_free;
        ] );
      ( "exec",
        [
          Alcotest.test_case "bit-exact sink" `Quick test_placed_run_bit_exact;
          Alcotest.test_case "per-device attribution" `Quick
            test_placed_run_attributes_devices;
          Alcotest.test_case "overlap clock" `Quick
            test_overlapped_clock_matches_model;
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
