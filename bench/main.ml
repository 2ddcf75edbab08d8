(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§5) from the simulated platforms' modelled seconds, gates
    the optimizer and multi-device placement against the Fig 8 and
    single-device baselines, and emits machine-readable perf results for
    regression tracking.  The toolchain's own wall-clock cost, layer by
    layer, is measured by perfbench/ (see perfbench/METRICS.md).

    Usage:
      dune exec bench/main.exe            — every experiment
      dune exec bench/main.exe -- table1 table2 table3 fig7a fig7b fig8 fig9
                                           marshal-ablation overlap glue
      dune exec bench/main.exe -- --quick --json BENCH_ci.json
      dune exec bench/main.exe -- --quick --baseline BENCH_ci.json
*)

module E = Lime_benchmarks.Experiments
module Benchjson = Lime_benchmarks.Benchjson
module Device = Gpusim.Device

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let run_table1 () =
  section "Table 1 — programming model comparison";
  print_endline (E.table1 ())

let run_table2 () =
  section "Table 2 — evaluation platforms";
  print_endline (E.table2 ())

let run_table3 () =
  section "Table 3 — benchmark suite";
  print_endline (E.table3 ())

let run_fig7a () =
  section "Figure 7(a) — end-to-end speedup, CPU (Core i7)";
  print_endline (E.render_fig7 ~title:"CPU (Core i7), OpenCL multicore runtime" (E.fig7a ()))

let run_fig7b () =
  section "Figure 7(b) — end-to-end speedup, GPU";
  print_endline (E.render_fig7 ~title:"GPU co-execution" (E.fig7b ()))

let run_fig8 () =
  section "Figure 8 — Lime vs hand-tuned OpenCL kernel times";
  List.iter
    (fun d -> print_endline (E.render_fig8 d (E.fig8_for d)); print_newline ())
    E.gpu_devices

let run_fig9 () =
  section "Figure 9 — computation and communication costs";
  print_endline (E.render_fig9 Device.core_i7 (E.fig9 Device.core_i7));
  print_newline ();
  print_endline (E.render_fig9 Device.gtx580 (E.fig9 Device.gtx580))

let run_marshal_ablation () =
  section "Marshaling ablation (§4.3)";
  print_endline (E.render_marshal_ablation (E.marshal_ablation Device.gtx580))

(* set by --quick before experiments run; the optimize experiment honors
   it so the CI gate stays fast *)
let quick_mode = ref false

(* --workload NAME restricts the registry-driven experiments; names are
   validated against the registry up front (see Registry.find_or_err). *)
let workload_filter = ref Lime_benchmarks.Registry.workloads

(* Beam-searched rewrite schedules vs the Fig 8 sweep, every registry
   workload x every Table 2 device.  Doubles as a gate: the beam winner
   must never model slower than the best Fig 8 configuration (it is
   seeded with the canned sequences), and on the TMatMul showcase it must
   be strictly faster — that workload exists because the Fig 8 space
   cannot optimize it. *)
let run_optimize () =
  section "Optimizer — beam-searched schedules vs best Fig 8 config";
  let failed = ref false in
  List.iter
    (fun d ->
      let rows = E.optimize_rows ~quick:!quick_mode d in
      print_endline (E.render_optimize d rows);
      print_newline ();
      List.iter
        (fun (r : E.optimize_row) ->
          if r.E.op_beam_s > r.E.op_fig8_s +. 1e-15 then begin
            Printf.printf "FAIL: %s on %s: beam %.3e > fig8 %.3e\n"
              r.E.op_bench d.Device.name r.E.op_beam_s r.E.op_fig8_s;
            failed := true
          end;
          if r.E.op_bench = "TMatMul" && r.E.op_beam_s >= r.E.op_fig8_s
          then begin
            Printf.printf
              "FAIL: TMatMul on %s: beam %.3e not strictly better than \
               fig8 %.3e\n"
              d.Device.name r.E.op_beam_s r.E.op_fig8_s;
            failed := true
          end)
        rows)
    (E.gpu_devices @ [ Device.core_i7 ]);
  if !failed then exit 1

(* Multi-device placement vs the best single device, every pipelined
   registry workload.  Doubles as a gate: the searched placement must
   never model slower than the best single device (the search is seeded
   with the single-device baselines), it must be strictly faster on at
   least one workload (N-Body Pipe exists because a single device cannot
   overlap its two n² kernels), and the placed engine's sink values must
   be bit-exact against the single-device engine. *)
let run_multidev () =
  section "Multi-device — placement search vs best single device";
  let rows = E.multidev_rows ~quick:!quick_mode () in
  print_endline (E.render_multidev rows);
  print_newline ();
  let failed = ref false in
  let strict = ref 0 in
  List.iter
    (fun (r : E.multidev_row) ->
      if r.E.md_placed_s > r.E.md_single_s +. 1e-15 then begin
        Printf.printf "FAIL: %s: placed %.3e slower than best single %s %.3e\n"
          r.E.md_bench r.E.md_placed_s r.E.md_best_single r.E.md_single_s;
        failed := true
      end;
      if r.E.md_placed_s < r.E.md_single_s -. 1e-15 then incr strict;
      if not r.E.md_bitexact then begin
        Printf.printf
          "FAIL: %s: multi-device sink drifts from the single-device engine\n"
          r.E.md_bench;
        failed := true
      end)
    rows;
  if !strict = 0 then begin
    print_endline
      "FAIL: no workload where the placement strictly beats the best \
       single device";
    failed := true
  end
  else
    Printf.printf
      "gate: placed <= best single on all %d workloads, strictly better on \
       %d, sinks bit-exact — ok\n"
      (List.length rows) !strict;
  if !failed then exit 1

(* Correctness evidence in the bench log: run the differential checks at
   test scale for all nine benchmarks. *)
let run_validate () =
  section "Validation — kernels vs independent OCaml references (small inputs)";
  Printf.printf "%-22s %10s
" "Benchmark" "match";
  List.iter
    (fun (b : Lime_benchmarks.Bench_def.t) ->
      let open Lime_benchmarks.Bench_def in
      let c = Lime_benchmarks.Registry.compile_small b in
      let input = b.input_small () in
      let st = Lime_ir.Interp.create c.Lime_gpu.Pipeline.cp_module in
      let cls, meth =
        match String.split_on_char '.' b.worker with
        | [ c; m ] -> (c, m)
        | _ -> assert false
      in
      let got = Lime_ir.Interp.run st ~cls ~meth [ input ] in
      let ok =
        Lime_ir.Value.approx_equal ~rtol:2e-4 ~atol:1e-5 got
          (b.reference input)
      in
      Printf.printf "%-22s %10s
" b.name (if ok then "ok" else "MISMATCH");
      if not ok then exit 1)
    !workload_filter

let run_overlap () =
  section "Future work (§5.3) — overlap + direct marshaling ablation";
  print_endline (E.render_overlap Device.gtx580 (E.overlap Device.gtx580))

let run_glue () =
  section "Host-glue volume (§2: 'a dozen OpenCL procedures, 182 lines')";
  Printf.printf "%-22s %12s %12s\n" "Benchmark" "glue lines" "kernel lines";
  List.iter
    (fun (name, glue, kern) ->
      Printf.printf "%-22s %12d %12d\n" name glue kern)
    (E.glue_volume ());
  let c = Lime_benchmarks.Registry.compile Lime_benchmarks.Nbody.single in
  let glue = Lime_gpu.Hostgen.generate c.Lime_gpu.Pipeline.cp_kernel in
  Printf.printf "\nDistinct OpenCL API procedures used by the glue: %d\n"
    (List.length (Lime_gpu.Hostgen.api_calls_used glue))

let all_experiments =
  [
    ("validate", run_validate);
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig7a", run_fig7a);
    ("fig7b", run_fig7b);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("marshal-ablation", run_marshal_ablation);
    ("optimize", run_optimize);
    ("multidev", run_multidev);
    ("overlap", run_overlap);
    ("glue", run_glue);
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable perf results (--json / --baseline)                 *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.printf
    "usage: bench/main.exe [FLAGS] [EXPERIMENT..]\n\n\
     Experiments (default: all of them; all run on the simulated platforms —\n\
     the toolchain's own wall-clock cost is measured by perfbench/):\n\
    \  %s\n\n\
     Flags:\n\
    \  --json FILE      collect per-benchmark per-device perf results\n\
    \                   (modelled time, speedup vs the JVM baseline, headline\n\
    \                   simulated hardware counters) and write them to FILE as\n\
    \                   versioned JSON (schema %s v%d)\n\
    \  --baseline FILE  diff the current collection against a previous --json\n\
    \                   run; exits 1 if any benchmark regressed more than 10%%\n\
    \  --quick          use the test-scale programs and inputs, so the JSON\n\
    \                   harness finishes in seconds (for CI)\n\
    \  --seed N         seed for the deterministic input builders (default 1)\n\
    \  --workload NAME  restrict registry-driven experiments to NAME (repeat\n\
    \                   for several); unknown names list what is available\n\
    \  --help           this text\n"
    (String.concat " " (List.map fst all_experiments))
    Benchjson.schema_name Benchjson.schema_version

type opts = {
  mutable o_json : string option;
  mutable o_baseline : string option;
  mutable o_quick : bool;
  mutable o_seed : int;
  mutable o_names : string list;
  mutable o_workloads : string list;
}

let parse_args () =
  let o =
    {
      o_json = None;
      o_baseline = None;
      o_quick = false;
      o_seed = 1;
      o_names = [];
      o_workloads = [];
    }
  in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-help" :: _ ->
        usage ();
        exit 0
    | "--json" :: file :: rest ->
        o.o_json <- Some file;
        go rest
    | "--baseline" :: file :: rest ->
        o.o_baseline <- Some file;
        go rest
    | "--quick" :: rest ->
        o.o_quick <- true;
        go rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some seed ->
            o.o_seed <- seed;
            go rest
        | None ->
            Printf.eprintf "bad --seed %s: expected an integer\n" n;
            exit 2)
    | "--workload" :: name :: rest ->
        o.o_workloads <- o.o_workloads @ [ name ];
        go rest
    | ("--json" | "--baseline" | "--seed" | "--workload") :: [] ->
        Printf.eprintf "missing argument (see --help)\n";
        exit 2
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Printf.eprintf "unknown flag %s (see --help)\n" arg;
        exit 2
    | name :: rest ->
        o.o_names <- o.o_names @ [ name ];
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let run_perf (o : opts) =
  let name =
    match o.o_json with
    | Some file ->
        let base = Filename.remove_extension (Filename.basename file) in
        if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
          String.sub base 6 (String.length base - 6)
        else base
    | None -> "bench"
  in
  section "Perf collection — benchmark x device, modelled";
  Printf.printf "scale: %s, seed %d\n"
    (if o.o_quick then "quick (test-size inputs)" else "paper")
    o.o_seed;
  let current =
    Benchjson.collect ~quick:o.o_quick ~seed:o.o_seed ~multidev:true ~name ()
  in
  Printf.printf "collected %d entries (%d benchmarks x %d devices + %d multi-device)\n"
    (List.length current.Benchjson.r_entries)
    (List.length Lime_benchmarks.Registry.workloads)
    (List.length Lime_benchmarks.Benchjson.devices)
    (List.length
       (List.filter
          (fun (e : Benchjson.entry) -> e.Benchjson.e_device = "multi-device")
          current.Benchjson.r_entries));
  (match o.o_json with
  | None -> ()
  | Some file ->
      Benchjson.write_file file current;
      Printf.printf "wrote %s\n" file);
  match o.o_baseline with
  | None -> ()
  | Some file -> (
      match Benchjson.read_file file with
      | Error msg ->
          Printf.eprintf "cannot read --baseline %s: %s\n" file msg;
          exit 2
      | Ok baseline ->
          let regs = Benchjson.diff ~baseline ~current () in
          if regs = [] then
            Printf.printf "baseline %s: %d entries compared, no regressions\n"
              file
              (List.length baseline.Benchjson.r_entries)
          else begin
            Printf.printf "baseline %s: %d regression(s):\n" file
              (List.length regs);
            List.iter
              (fun r ->
                Printf.printf "  %s\n" (Benchjson.render_regression r))
              regs;
            exit 1
          end)

let () =
  let o = parse_args () in
  quick_mode := o.o_quick;
  (match o.o_workloads with
  | [] -> ()
  | names ->
      workload_filter :=
        List.map
          (fun n ->
            match Lime_benchmarks.Registry.find_or_err n with
            | Ok b -> b
            | Error msg ->
                prerr_endline msg;
                exit 2)
          names);
  let perf_mode = o.o_json <> None || o.o_baseline <> None in
  let requested =
    match o.o_names with
    | [] when perf_mode -> []
    | [] -> List.map fst all_experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 1)
    requested;
  if perf_mode then run_perf o
