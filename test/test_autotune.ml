(* Tests for the memory-mapping autotuner (§4.2.1 "automated exploration"). *)

module A = Gpusim.Autotune
module Device = Gpusim.Device
module Memopt = Lime_gpu.Memopt
module B = Lime_benchmarks.Bench_def

let kernel_of (b : B.t) =
  (Lime_benchmarks.Registry.compile b).Lime_gpu.Pipeline.cp_kernel

let shapes_for (b : B.t) =
  let input = b.B.input () in
  let k = kernel_of b in
  fst (Lime_runtime.Engine.shapes_of_args k [ input ])

let test_sweep_sorted () =
  let b = Lime_benchmarks.Nbody.single in
  let entries =
    A.sweep Device.gtx8800 (kernel_of b) ~shapes:(shapes_for b) ~scalars:[]
  in
  Alcotest.(check int) "eight entries" 8 (List.length entries);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.A.at_time_s <= b.A.at_time_s +. 1e-12 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending" true (sorted entries)

let test_best_is_minimum () =
  let b = Lime_benchmarks.Mosaic.bench in
  let k = kernel_of b in
  let shapes = shapes_for b in
  let best = List.hd (A.sweep Device.gtx8800 k ~shapes ~scalars:[]) in
  List.iter
    (fun (_, cfg) ->
      let bd, _ = A.time_config_ex Device.gtx8800 k cfg ~shapes ~scalars:[] in
      let t = bd.Gpusim.Model.bd_total_s in
      Alcotest.(check bool) "best <= every config" true
        (best.A.at_time_s <= t +. 1e-12))
    Memopt.fig8_configs

let test_winners_match_paper () =
  (* on the cache-less GTX8800 the winners reproduce §5.2's structure *)
  let winner (b : B.t) =
    (List.hd
       (A.sweep Device.gtx8800 (kernel_of b) ~shapes:(shapes_for b) ~scalars:[]))
      .A.at_name
  in
  let mosaic = winner Lime_benchmarks.Mosaic.bench in
  Alcotest.(check bool)
    ("Mosaic wins with conflict-free local, got " ^ mosaic)
    true
    (Lime_support.Util.starts_with ~prefix:"Local+Conflicts removed" mosaic);
  let rpes = winner Lime_benchmarks.Rpes.bench in
  Alcotest.(check string) "RPES wins with texture on G80" "Texture" rpes

let test_fermi_winner_margin_small () =
  (* on Fermi the spread between best and worst non-mosaic config is small *)
  let b = Lime_benchmarks.Cp.bench in
  let entries =
    A.sweep Device.gtx580 (kernel_of b) ~shapes:(shapes_for b) ~scalars:[]
  in
  let best = (List.hd entries).A.at_time_s in
  let worst = (List.nth entries 7).A.at_time_s in
  Alcotest.(check bool) "CP spread < 1.3x on Fermi" true (worst /. best < 1.3)

let () =
  Alcotest.run "autotune"
    [
      ( "sweep",
        [
          Alcotest.test_case "sorted" `Quick test_sweep_sorted;
          Alcotest.test_case "best is min" `Quick test_best_is_minimum;
          Alcotest.test_case "winners match paper" `Quick
            test_winners_match_paper;
          Alcotest.test_case "Fermi margins" `Quick
            test_fermi_winner_margin_small;
        ] );
    ]
