(* Tests for the §5.3 future-work features: the pipelined schedule and the
   direct-to-device serializer. *)

module S = Lime_runtime.Schedule
module M = Lime_runtime.Marshal
module V = Lime_ir.Value
module Ir = Lime_ir.Ir
module E = Lime_benchmarks.Experiments
module B = Lime_benchmarks.Bench_def

(* the §5.3 single-device pipeline: three single-leg stages on distinct
   resources (host thread, PCIe link, device) *)
let three ~host ~link ~kernel =
  let leg r s = [ { S.lg_resource = r; lg_seconds = s } ] in
  [ leg "host" host; leg "link" link; leg "dev" kernel ]

let test_serial_is_sum () =
  (* one firing has nothing to overlap: a serial pass through the legs *)
  let s = three ~host:1.0 ~link:2.0 ~kernel:3.0 in
  Alcotest.(check (float 1e-9)) "serial" 6.0
    (S.overlapped_makespan ~firings:1 s)

let test_pipelined_bounded_by_bottleneck () =
  let s = three ~host:1.0 ~link:2.0 ~kernel:3.0 in
  let t = S.overlapped_makespan ~firings:100 s in
  (* steady state: one firing per max stage = 3.0 *)
  Alcotest.(check bool) "close to n*max" true (t < 100.0 *. 3.0 +. 7.0);
  Alcotest.(check bool) "not faster than bottleneck" true (t >= 100.0 *. 3.0)

let test_pipelining_never_slower () =
  List.iter
    (fun (h, l, k) ->
      let s = three ~host:h ~link:l ~kernel:k in
      Alcotest.(check bool) "pipelined <= serial" true
        (S.overlapped_makespan ~firings:16 s
        <= (16.0 *. (h +. l +. k)) +. 1e-12))
    [ (1., 1., 1.); (0.1, 0.2, 5.0); (4.0, 0.1, 0.1); (0.0, 0.0, 1.0) ]

let test_speedup_capped_by_stages () =
  (* with three overlappable resources the gain cannot exceed 3x *)
  let s = three ~host:1.0 ~link:1.0 ~kernel:1.0 in
  let sp = 3000.0 /. S.overlapped_makespan ~firings:1000 s in
  Alcotest.(check bool) "near 3x for balanced stages" true
    (sp > 2.5 && sp <= 3.0)

let test_direct_roundtrip () =
  let a = V.of_float_matrix 5 4 (Array.init 20 float_of_int) in
  let e = M.encode_direct (V.VArr a) in
  Alcotest.(check int) "dense bytes" (20 * 4) (Bytes.length e);
  let back = M.decode_direct ~elem:Ir.SFloat ~shape:[| 5; 4 |] e in
  Alcotest.(check bool) "roundtrip" true
    (V.approx_equal ~rtol:0.0 ~atol:0.0 (V.VArr a) back)

let test_direct_size_mismatch () =
  let e = Bytes.create 16 in
  match M.decode_direct ~elem:Ir.SFloat ~shape:[| 5 |] e with
  | exception M.Marshal_error _ -> ()
  | _ -> Alcotest.fail "expected size mismatch error"

let test_direct_skips_c_marshal () =
  Alcotest.(check bool) "custom needs C marshal" true
    (M.needs_c_marshal M.Custom);
  Alcotest.(check bool) "direct skips C marshal" false
    (M.needs_c_marshal M.Direct)

let test_engine_direct_results_identical () =
  let b = Lime_benchmarks.Nbody.single in
  let c =
    Lime_gpu.Pipeline.compile ~worker:b.B.worker b.B.source
  in
  let run serializer =
    let cfg = { Lime_runtime.Engine.default_config with serializer } in
    let _, r =
      Lime_runtime.Engine.run_program cfg c.Lime_gpu.Pipeline.cp_module
        ~cls:"NBodySim" ~meth:"main"
        [ V.VInt 24; V.VInt 1 ]
    in
    r.Lime_runtime.Engine.last_value
  in
  Alcotest.(check bool) "direct = custom results" true
    (V.approx_equal ~rtol:0.0 ~atol:0.0 (run M.Custom) (run M.Direct))

(* ------------------------------------------------------------------ *)
(* Properties: the flow-shop closed form, bounds and monotonicity     *)
(* ------------------------------------------------------------------ *)

let firings_gen = QCheck.int_range 1 64

(* identical firings through three single-leg stages on distinct
   resources finish at one serial pass plus (n-1) bottleneck periods *)
let prop_flow_shop =
  QCheck.Test.make ~name:"flow shop: fill + (n-1) x max" ~count:500
    (QCheck.pair firings_gen
       (QCheck.triple
          (QCheck.float_range 0.0 5.0)
          (QCheck.float_range 0.0 5.0)
          (QCheck.float_range 0.0 5.0)))
    (fun (firings, (host, link, kernel)) ->
      let t = S.overlapped_makespan ~firings (three ~host ~link ~kernel) in
      let slowest = Float.max host (Float.max link kernel) in
      let expected =
        host +. link +. kernel +. (float_of_int (firings - 1) *. slowest)
      in
      Float.abs (t -. expected) <= 1e-9 *. expected)

(* random placed pipelines for the generalized simulator: a few stages,
   each a leg sequence over a small resource alphabet *)
let legs_gen =
  let resource =
    QCheck.oneofl [ "host"; "link:a"; "dev:a"; "link:b"; "dev:b" ]
  in
  let leg =
    QCheck.map
      (fun (r, s) -> { S.lg_resource = r; lg_seconds = s })
      (QCheck.pair resource (QCheck.float_range 0.0 3.0))
  in
  QCheck.list_of_size (QCheck.Gen.int_range 1 4)
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5) leg)

let serial_sum ~firings stages =
  float_of_int firings
  *. List.fold_left
       (fun acc legs ->
         List.fold_left (fun a (l : S.leg) -> a +. l.S.lg_seconds) acc legs)
       0.0 stages

let busiest_resource ~firings stages =
  let per = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (l : S.leg) ->
         let prev =
           Option.value ~default:0.0 (Hashtbl.find_opt per l.S.lg_resource)
         in
         Hashtbl.replace per l.S.lg_resource (prev +. l.S.lg_seconds)))
    stages;
  float_of_int firings *. Hashtbl.fold (fun _ v acc -> max v acc) per 0.0

let prop_makespan_between_bounds =
  QCheck.Test.make
    ~name:"busiest-resource bound <= makespan <= serial sum" ~count:300
    (QCheck.pair firings_gen legs_gen)
    (fun (firings, stages) ->
      let t = S.overlapped_makespan ~firings stages in
      t <= serial_sum ~firings stages +. 1e-9
      && t >= busiest_resource ~firings stages -. 1e-9)

let prop_makespan_monotone_in_firings =
  QCheck.Test.make ~name:"makespan is monotone in firings" ~count:300
    (QCheck.pair (QCheck.int_range 1 32) legs_gen)
    (fun (firings, stages) ->
      S.overlapped_makespan ~firings stages
      <= S.overlapped_makespan ~firings:(firings + 1) stages +. 1e-9)

let test_overlap_experiment_shape () =
  (* gains concentrate where communication share is high *)
  let rows = E.overlap ~firings:32 Gpusim.Device.gtx580 in
  List.iter
    (fun (r : E.overlap_row) ->
      Alcotest.(check bool)
        (r.E.ov_bench ^ " pipelined >= 1")
        true
        (r.E.ov_pipelined_speedup >= 0.999);
      Alcotest.(check bool)
        (r.E.ov_bench ^ " direct >= pipelined")
        true
        (r.E.ov_direct_speedup >= r.E.ov_pipelined_speedup -. 1e-9))
    rows;
  let find n = List.find (fun (r : E.overlap_row) -> r.E.ov_bench = n) rows in
  Alcotest.(check bool) "comm-heavy Series gains more than compute-bound CP"
    true
    ((find "JG-Series (Single)").E.ov_pipelined_speedup
    > (find "Parboil-CP").E.ov_pipelined_speedup)

let () =
  Alcotest.run "schedule"
    [
      ( "pipeline",
        [
          Alcotest.test_case "serial sum" `Quick test_serial_is_sum;
          Alcotest.test_case "bottleneck bound" `Quick
            test_pipelined_bounded_by_bottleneck;
          Alcotest.test_case "never slower" `Quick test_pipelining_never_slower;
          Alcotest.test_case "speedup cap" `Quick test_speedup_capped_by_stages;
        ] );
      ( "direct serializer",
        [
          Alcotest.test_case "roundtrip" `Quick test_direct_roundtrip;
          Alcotest.test_case "size mismatch" `Quick test_direct_size_mismatch;
          Alcotest.test_case "skips C marshal" `Quick
            test_direct_skips_c_marshal;
          Alcotest.test_case "engine results identical" `Quick
            test_engine_direct_results_identical;
        ] );
      ( "experiment",
        [ Alcotest.test_case "overlap shape" `Slow test_overlap_experiment_shape ] );
      Testutil.qsuite "properties"
        [
          prop_flow_shop;
          prop_makespan_between_bounds;
          prop_makespan_monotone_in_firings;
        ];
    ]
