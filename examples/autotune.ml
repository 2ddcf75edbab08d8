(** Memory-mapping autotuner.

    Run with:  dune exec examples/autotune.exe -- [benchmark]

    The paper notes the compiler "permits any of the optimizations to be
    enabled and disabled so that it is possible to perform an automated
    exploration of the memory mapping and layout" (§4.2.1).  This example
    is that exploration: for every benchmark and device, it sweeps the
    eight Fig 8 configurations on the device model and reports the winner —
    which is how each benchmark's `best_config` was chosen. *)

module E = Lime_benchmarks.Experiments
module B = Lime_benchmarks.Bench_def

let () =
  let which =
    if Array.length Sys.argv > 1 then
      match Lime_benchmarks.Registry.find Sys.argv.(1) with
      | Some b -> [ b ]
      | None ->
          Printf.eprintf "unknown benchmark %S; available:\n  %s\n"
            Sys.argv.(1)
            (String.concat "\n  "
               (List.map
                  (fun (b : B.t) -> b.B.name)
                  Lime_benchmarks.Registry.all));
          exit 2
    else Lime_benchmarks.Registry.all
  in
  List.iter
    (fun (b : B.t) ->
      Printf.printf "=== %s ===\n" b.B.name;
      let p = E.prepare b in
      let k = p.E.p_compiled.Lime_gpu.Pipeline.cp_kernel in
      List.iter
        (fun d ->
          let entries =
            Gpusim.Autotune.sweep d k ~shapes:p.E.p_shapes
              ~scalars:p.E.p_scalars
          in
          let best = List.hd entries
          and worst = List.nth entries (List.length entries - 1) in
          Printf.printf "  %-28s best: %-32s %8.3f ms (worst/best %.1fx)\n"
            d.Gpusim.Device.name best.at_name (best.at_time_s *. 1e3)
            (worst.at_time_s /. best.at_time_s))
        E.gpu_devices;
      print_newline ())
    which
