(** Mosaic: the paper's map-and-reduce image benchmark.

    Run with:  dune exec examples/mosaic_app.exe

    Builds a tile library and reference tiles, finds the best-matching
    library tile for every reference tile with a [Math.min !] reduction over
    SAD scores, and renders the upscaled mosaic.  Shows the bank-conflict
    padding story of §5.2: the compiled kernel with conflict removal beats
    the (simulated) hand-tuned version. *)

module E = Lime_benchmarks.Experiments
module B = Lime_benchmarks.Bench_def
module Memopt = Lime_gpu.Memopt
module V = Lime_ir.Value

let () =
  let bench = Lime_benchmarks.Mosaic.bench in
  print_endline "=== Mosaic: map-and-reduce tile matching ===\n";

  (* run the kernel functionally on a small input *)
  let compiled = Lime_benchmarks.Registry.compile_small bench in
  let input = bench.B.input_small () in
  let st = Lime_ir.Interp.create compiled.Lime_gpu.Pipeline.cp_module in
  let output =
    Lime_ir.Interp.run st ~cls:"Mosaic" ~meth:"computeMosaic" [ input ]
  in
  (match (input, output) with
  | V.VArr i, V.VArr o ->
      Printf.printf "input tiles: %d (library %d + references %d), 8x8 px\n"
        i.V.shape.(0) Lime_benchmarks.Mosaic.lib_tiles
        (i.V.shape.(0) - Lime_benchmarks.Mosaic.lib_tiles);
      Printf.printf "output mosaic: %d tiles x %d px (3x upscaled)\n"
        o.V.shape.(0) o.V.shape.(1)
  | _ -> ());
  let ok =
    V.approx_equal ~rtol:0.0 ~atol:0.0 output (bench.B.reference input)
  in
  Printf.printf "matches the OCaml reference: %b\n\n" ok;

  (* kernel-quality sweep: the §5.2 padding story *)
  print_endline
    "=== Kernel time by memory configuration (paper-scale input) ===";
  let p = E.prepare bench in
  List.iter
    (fun d ->
      Printf.printf "\n%s:\n" d.Gpusim.Device.name;
      let entries =
        Gpusim.Autotune.sweep d p.E.p_compiled.Lime_gpu.Pipeline.cp_kernel
          ~shapes:p.E.p_shapes ~scalars:p.E.p_scalars
      in
      List.iter
        (fun (name, _) ->
          let e =
            List.find (fun e -> e.Gpusim.Autotune.at_name = name) entries
          in
          Printf.printf "  %-32s %8.3f ms\n" name
            (e.Gpusim.Autotune.at_time_s *. 1e3))
        Memopt.fig8_configs)
    E.gpu_devices;
  print_endline
    "\nNote the Local vs Local+Conflicts-removed gap: the 64-element tile\n\
     rows hit the 16/32-bank local memories at a power-of-two stride, and\n\
     the compiler's padding removes the conflicts (paper §5.2: the compiled\n\
     Mosaic kernel beat the hand-tuned one for exactly this reason)."
