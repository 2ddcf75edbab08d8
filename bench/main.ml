(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§5) from the simulated platforms' modelled seconds, gates
    the optimizer and multi-device placement against the Fig 8 and
    single-device baselines, drives generated-program traffic through an
    in-process daemon, and emits machine-readable perf results for
    regression tracking.  The toolchain's own wall-clock cost, layer by
    layer, is measured by perfbench/ (see perfbench/METRICS.md).

    Usage:
      dune exec bench/main.exe            — every experiment
      dune exec bench/main.exe -- table1 table2 table3 fig7a fig7b fig8 fig9
                                           marshal-ablation overlap glue
      dune exec bench/main.exe -- --quick --json BENCH_ci.json
      dune exec bench/main.exe -- --quick --baseline BENCH_ci.json
      dune exec bench/main.exe -- --fuzz 30 --seed 2
*)

module E = Lime_benchmarks.Experiments
module Benchjson = Lime_benchmarks.Benchjson
module Device = Gpusim.Device
module Sketch = Lime_service.Sketch
module Clock = Lime_support.Clock

(* Streaming percentiles without retaining the stream: the same sketch
   the daemon serves from /metrics, so bench and daemon quote the same
   estimator (offline sorts survive only in the agreement gate). *)
let sketch_pct sk q =
  match Sketch.quantile sk q with Some v -> v | None -> 0.0

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

(* Generated-program traffic against the daemon (--fuzz N): a
   zipf-weighted stream drawn from a lime.fuzz corpus, the precursor to
   the fleet bench.  Unlike the registry suites, the program mix is
   novel by construction — the head of the distribution hits the cache
   tiers, the tail forces cold compiles — so this measures the daemon's
   tail latency under realistic cache pressure. *)
let run_fuzz_traffic ~count ~seed () =
  section "Compile daemon — generated-program traffic (lime.fuzz)";
  let module Server = Lime_server.Server in
  let module Client = Lime_server.Client in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pool = max 4 (min 64 (count / 4)) in
  let items =
    Lime_fuzz.Gen.corpus ~seed pool
    |> List.map (fun p ->
           ( List.hd (List.rev (Lime_fuzz.Gen.workers p)),
             Lime_fuzz.Gen.to_source p ))
    |> Array.of_list
  in
  (* zipf(1.1) over pool ranks, inverse-cdf sampled from the
     deterministic Prng so a seed fully determines the traffic *)
  let weights =
    Array.init pool (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.1))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let rng = Lime_support.Prng.create (0x5a69 lxor (seed * 2654435761)) in
  let pick () =
    let x = Lime_support.Prng.float01 rng *. total in
    let acc = ref 0.0 and hit = ref (pool - 1) in
    (try
       Array.iteri
         (fun r w ->
           acc := !acc +. w;
           if x < !acc then begin
             hit := r;
             raise Exit
           end)
         weights
     with Exit -> ());
    !hit
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "limed-fuzz-%d.sock" (Unix.getpid ()))
  in
  (* the daemon keeps its own access log: the server-side exact
     durations the agreement gate below replays offline *)
  let log_file = Filename.temp_file "limed-fuzz-access" ".jsonl" in
  let server =
    Server.create
      {
        (Server.default_config ~socket:sock) with
        Server.sc_access_log = Some log_file;
      }
  in
  let dom = Domain.spawn (fun () -> Server.run server) in
  let cl =
    match Client.connect sock with
    | Ok cl -> cl
    | Error msg ->
        prerr_endline msg;
        exit 1
  in
  let sk = Sketch.create () in
  let origins = Hashtbl.create 4 in
  let errors = ref 0 in
  let t_all = Clock.now_s () in
  for _ = 1 to count do
    let worker, source = items.(pick ()) in
    let t0 = Clock.now_s () in
    (match Client.compile cl ~name:"fuzz" ~worker source with
    | Ok art ->
        let o = art.Lime_server.Wire.ar_origin in
        Hashtbl.replace origins o
          (1 + Option.value ~default:0 (Hashtbl.find_opt origins o))
    | Error f ->
        incr errors;
        prerr_endline (Client.failure_to_string f));
    Sketch.add sk (Clock.now_s () -. t0)
  done;
  let wall = Clock.now_s () -. t_all in
  (* scrape the daemon's windowed quantiles while it is still up *)
  let stats_text =
    match Client.stats cl with
    | Ok text -> text
    | Error f ->
        prerr_endline (Client.failure_to_string f);
        exit 1
  in
  Client.close cl;
  Server.drain server;
  Domain.join dom;
  let origin o = Option.value ~default:0 (Hashtbl.find_opt origins o) in
  let compiled = origin "compiled" in
  let hits = origin "memory" + origin "disk" in
  Printf.printf
    "pool: %d generated programs (seed %d), %d requests, zipf 1.1\n" pool
    seed count;
  Printf.printf
    "cold compiles: %d   cache hits: %d (%.0f%%: %d memory, %d disk)   \
     errors: %d\n"
    compiled hits
    (100.0 *. float_of_int hits /. float_of_int (max 1 count))
    (origin "memory") (origin "disk") !errors;
  Printf.printf
    "latency: p50 %.2f ms  p99 %.2f ms  max %.2f ms  (%.0f req/s, sketch \
     alpha %g)\n"
    (sketch_pct sk 0.5 *. 1e3)
    (sketch_pct sk 0.99 *. 1e3)
    (Sketch.max_seen sk *. 1e3)
    (float_of_int count /. wall)
    (Sketch.alpha sk);
  (* -------------------------------------------------------------- *)
  (* Agreement gate: the daemon's own windowed p50/p99 (streaming
     sketch over server-side durations) must agree with the exact
     quantiles of the same durations, replayed offline from the access
     log with the shared rank convention, within the sketch's
     documented relative-error bound. *)
  let find_sub s pat =
    let n = String.length s and m = String.length pat in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = pat then Some (i + m)
      else go (i + 1)
    in
    go 0
  in
  let json_field_string line key =
    Option.bind (find_sub line ("\"" ^ key ^ "\":\"")) (fun start ->
        Option.map
          (fun stop -> String.sub line start (stop - start))
          (String.index_from_opt line start '"'))
  in
  let json_field_float line key =
    Option.bind (find_sub line ("\"" ^ key ^ "\":")) (fun start ->
        let stop = ref start in
        while
          !stop < String.length line
          && not (List.mem line.[!stop] [ ','; '}' ])
        do
          incr stop
        done;
        float_of_string_opt (String.sub line start (!stop - start)))
  in
  (* only outcomes that were answered with a reply feed the summary *)
  let observed = [ "ok"; "compile-error"; "error" ] in
  let exact =
    In_channel.with_open_text log_file In_channel.input_lines
    |> List.filter_map (fun line ->
           match json_field_string line "outcome" with
           | Some o when List.mem o observed -> json_field_float line "duration_s"
           | _ -> None)
    |> Array.of_list
  in
  (try Sys.remove log_file with Sys_error _ -> ());
  Array.sort compare exact;
  let n_obs = Array.length exact in
  let sample name =
    let prefix = name ^ " " in
    String.split_on_char '\n' stats_text
    |> List.find_map (fun line ->
           let pl = String.length prefix in
           if String.length line > pl && String.sub line 0 pl = prefix then
             float_of_string_opt
               (String.trim (String.sub line pl (String.length line - pl)))
           else None)
  in
  let alpha = Sketch.default_alpha in
  let failed = ref false in
  (match sample "lime_server_request_seconds_summary_count" with
  | Some c when int_of_float c = n_obs -> ()
  | reported ->
      Printf.printf
        "FAIL: daemon summary count %s != %d access-log observations\n"
        (match reported with
        | Some c -> string_of_int (int_of_float c)
        | None -> "(missing)")
        n_obs;
      failed := true);
  if n_obs = 0 then begin
    print_endline "FAIL: no observed requests in the access log";
    failed := true
  end
  else
    List.iter
      (fun q ->
        let name =
          Printf.sprintf
            "lime_server_request_seconds_summary{window=\"5m\",quantile=\"%g\"}"
            q
        in
        match sample name with
        | None ->
            Printf.printf "FAIL: exposition lacks %s\n" name;
            failed := true
        | Some est ->
            let x = exact.(Sketch.rank_of q n_obs - 1) in
            let rel = Float.abs (est -. x) /. x in
            Printf.printf
              "agreement p%g: daemon %.3f ms  offline exact %.3f ms  \
               (relative error %.4f, bound %g)\n"
              (q *. 100.0) (est *. 1e3) (x *. 1e3) rel alpha;
            (* the %g exposition rounds to 6 significant digits; allow
               that on top of the sketch bound *)
            if rel > alpha +. 1e-4 then begin
              Printf.printf "FAIL: p%g disagrees beyond the sketch bound\n"
                (q *. 100.0);
              failed := true
            end)
      [ 0.5; 0.99 ];
  if !failed || !errors > 0 then exit 1
  else
    Printf.printf
      "gate: daemon windowed quantiles within alpha=%g of offline exact — \
       ok\n"
      alpha

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
    \  --fuzz N         drive N zipf-weighted generated-program requests\n\
    \                   (lime.fuzz corpus, seeded by --seed) against an\n\
    \                   in-process daemon; reports cache hit rate and p50/p99\n\
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
  mutable o_fuzz : int option;
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
      o_fuzz = None;
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
    | "--fuzz" :: n :: rest -> (
        match int_of_string_opt n with
        | Some count when count > 0 ->
            o.o_fuzz <- Some count;
            go rest
        | _ ->
            Printf.eprintf "bad --fuzz %s: expected a positive integer\n" n;
            exit 2)
    | "--workload" :: name :: rest ->
        o.o_workloads <- o.o_workloads @ [ name ];
        go rest
    | ("--json" | "--baseline" | "--seed" | "--fuzz" | "--workload") :: [] ->
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
  (match o.o_fuzz with
  | Some count -> run_fuzz_traffic ~count ~seed:o.o_seed ()
  | None -> ());
  let perf_mode = o.o_json <> None || o.o_baseline <> None in
  let requested =
    match o.o_names with
    | [] when perf_mode || o.o_fuzz <> None -> []
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
