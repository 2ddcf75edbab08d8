(** The compile service: content-addressed caching, request coalescing,
    persistent autotuning, and metrics.

    Run with:  dune exec examples/service_demo.exe

    The demo stands up a service over a temporary cache directory, serves a
    burst of identical compile requests (one compile, the rest coalesced),
    sweeps the N-Body kernel twice on the GTX 8800 (the second sweep is
    answered by the tunestore), and finally prints the metrics
    exposition. *)

module Service = Lime_service.Service
module Kcache = Lime_service.Kcache
module Metrics = Lime_service.Metrics

let nbody = Lime_benchmarks.Nbody.single

let temp_dir () =
  let f = Filename.temp_file "lime_service_demo" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let () =
  let dir = temp_dir () in
  Service.instrument ();
  let svc = Service.create ~cache_dir:dir ~capacity:16 () in
  let worker = nbody.Lime_benchmarks.Bench_def.worker in
  let source = nbody.Lime_benchmarks.Bench_def.source in

  print_endline "=== 1. A burst of identical in-flight compile requests ===";
  let burst = List.init 6 (fun _ -> Service.request ~worker source) in
  let compiled =
    match List.hd (Service.compile_many svc burst) with
    | Ok c -> c
    | Error d -> failwith (Lime_support.Diag.to_string d)
  in
  let s = Service.stats svc in
  Printf.printf
    "6 requests -> %d compile (misses), %d coalesced, %d hits\n\n"
    s.Kcache.misses s.Kcache.coalesced s.Kcache.hits;

  print_endline "=== 2. Repeated requests are cache hits ===";
  let _, origin = Service.compile_ex svc ~worker source in
  Printf.printf "second call served from: %s\n\n" (Service.origin_name origin);

  print_endline "=== 3. Autotune sweep, cold then warm (tunestore) ===";
  let d = Gpusim.Device.gtx8800 in
  let digest = Service.request_digest ~device:"gtx8800" ~worker source in
  let shapes = [ ("particles", [| 1024; 4 |]) ] in
  let kernel = compiled.Lime_gpu.Pipeline.cp_kernel in
  let sweep_once label =
    let entries, status =
      Service.sweep svc d ~device_key:"gtx8800" ~digest kernel ~shapes
        ~scalars:[]
    in
    Printf.printf "%s: %s (%d configurations timed)\n" label
      (match status with `Hit -> "tunestore hit" | `Miss -> "tunestore miss")
      (List.length entries);
    match entries with
    | best :: _ ->
        Printf.printf "  best: %-32s %.3f ms\n" best.Gpusim.Autotune.at_name
          (best.Gpusim.Autotune.at_time_s *. 1e3)
    | [] -> ()
  in
  sweep_once "cold sweep";
  sweep_once "warm sweep";
  print_newline ();

  print_endline "=== 4. Run the task graph so the comm legs get observed ===";
  let _, report =
    Lime_runtime.Engine.run_program Lime_runtime.Engine.default_config
      compiled.Lime_gpu.Pipeline.cp_module ~cls:"NBodySim" ~meth:"main"
      [ Lime_ir.Value.VInt 256; Lime_ir.Value.VInt 2 ]
  in
  Printf.printf "%d firings; offloaded: %s\n\n"
    report.Lime_runtime.Engine.firings
    (String.concat ", " report.Lime_runtime.Engine.offloaded_tasks);

  print_endline "=== 5. Metrics exposition ===";
  print_string (Service.expose svc);
  Printf.printf "\n(cache artifacts under %s)\n" dir
