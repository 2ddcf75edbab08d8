(* End-to-end tests of the limec command-line compiler: drive the real
   binary over the shipped .lime programs and check its outputs. *)

let find candidates = List.find_opt Sys.file_exists candidates

let limec =
  find [ "../bin/limec.exe"; "bin/limec.exe"; "_build/default/bin/limec.exe" ]

let nbody =
  find
    [
      "../examples/lime/nbody.lime"; "examples/lime/nbody.lime";
      "_build/default/examples/lime/nbody.lime";
    ]

let available = limec <> None && nbody <> None
let limec = Option.value limec ~default:"limec"
let nbody = Option.value nbody ~default:"nbody.lime"

let capture args =
  let out = Filename.temp_file "limec" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote limec) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let skip_unless_available () =
  if not available then
    Alcotest.skip ()

let contains sub text = Lime_support.Util.contains_substring ~sub text

let test_default_summary () =
  skip_unless_available ();
  let code, out = capture (nbody ^ " -w NBody.computeForces") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "kernel named" true
    (contains "NBody.computeForces" out);
  Alcotest.(check bool) "placements shown" true (contains "particles" out)

let test_emit_opencl () =
  skip_unless_available ();
  let code, out =
    capture (nbody ^ " -w NBody.computeForces --emit-opencl -c constant+vec")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "kernel source" true (contains "__kernel void" out);
  Alcotest.(check bool) "constant float4" true
    (contains "__constant float4" out)

let test_estimate () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody
     ^ " -w NBody.computeForces --estimate gtx580 --shape particles=1024x4")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "device named" true (contains "GTX 580" out);
  Alcotest.(check bool) "estimate printed" true (contains "estimate: total=" out)

let test_sweep () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody ^ " -w NBody.computeForces --sweep gtx8800 --shape particles=1024x4")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "eight rows" true (contains "Texture" out);
  Alcotest.(check bool) "exploration banner" true
    (contains "memory-mapping exploration" out)

let test_error_reporting () =
  skip_unless_available ();
  (* a rejected program must exit 1 with a located diagnostic from the
     phase that rejected it, never an internal error *)
  List.iter
    (fun (source, want) ->
      let bad = Filename.temp_file "bad" ".lime" in
      Out_channel.with_open_text bad (fun oc ->
          Out_channel.output_string oc source);
      let code, out = capture (bad ^ " -w C.f") in
      Sys.remove bad;
      Alcotest.(check int) (want ^ ": exit 1") 1 code;
      Alcotest.(check bool) (want ^ ": diagnostic shown") true
        (contains want out);
      Alcotest.(check bool) (want ^ ": location shown") true
        (contains ".lime:" out))
    [
      ( "class C { static local int f(float[[]] xs) { xs[0] = 1.0f; return \
         0; } }",
        "immutable" );
      ( "class C { static int f(int x) { return x + 99999999999999999999; } }",
        "[lexer]" );
      ( "class P { int v; }\n\
         class C { local static int f(int x) { P[] ps = new P[3]; return x; \
         } }",
        "arrays of objects" );
    ]

let test_unknown_worker () =
  skip_unless_available ();
  let code, _ = capture (nbody ^ " -w NBody.missing") in
  Alcotest.(check int) "exit 1" 1 code

let test_bad_shape () =
  skip_unless_available ();
  (* a malformed dimension must be a diagnostic, not an uncaught Failure *)
  let code, out =
    capture
      (nbody
     ^ " -w NBody.computeForces --estimate gtx580 --shape particles=4096xK")
  in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "names the flag" true (contains "bad --shape" out);
  Alcotest.(check bool) "shows the offending token" true (contains "\"K\"" out);
  Alcotest.(check bool) "no raw exception" false (contains "int_of_string" out);
  let code, out =
    capture
      (nbody ^ " -w NBody.computeForces --estimate gtx580 --shape particles=0")
  in
  Alcotest.(check int) "zero dim exits 2" 2 code;
  Alcotest.(check bool) "positivity stated" true (contains "positive" out)

let test_unknown_device () =
  skip_unless_available ();
  List.iter
    (fun flag ->
      let code, out =
        capture
          (Printf.sprintf "%s -w NBody.computeForces --%s tpu --shape particles=1024x4"
             nbody flag)
      in
      Alcotest.(check int) (flag ^ " exits 2") 2 code;
      Alcotest.(check bool) (flag ^ " names the device") true
        (contains "unknown device tpu" out);
      Alcotest.(check bool) (flag ^ " lists alternatives") true
        (contains "gtx8800, gtx580, hd5970, corei7" out))
    [ "estimate"; "sweep" ]

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_cache_dir_warm_sweep () =
  skip_unless_available ();
  let dir = Filename.temp_file "limec_cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let args =
    Printf.sprintf
      "%s -w NBody.computeForces --sweep gtx8800 --shape particles=1024x4 \
       --cache-dir %s"
      nbody (Filename.quote dir)
  in
  let code1, out1 = capture args in
  let code2, out2 = capture args in
  rm_rf dir;
  Alcotest.(check int) "cold run exits 0" 0 code1;
  Alcotest.(check int) "warm run exits 0" 0 code2;
  Alcotest.(check bool) "cold run misses the tunestore" true
    (contains "tunestore: miss" out1);
  Alcotest.(check bool) "warm run hits the tunestore" true
    (contains "tunestore: hit" out2);
  Alcotest.(check bool) "warm run loads the kernel from disk" true
    (contains "kernel cache: hit (disk)" out2);
  (* the warm headline is the re-timed winner's: the same line the cold
     sweep printed *)
  let winner out =
    List.find_opt
      (Lime_support.Util.starts_with ~prefix:"winner: occupancy ")
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "cold run prints the winner's headline" true
    (winner out1 <> None);
  Alcotest.(check (option string)) "warm headline is the cold one"
    (winner out1) (winner out2)

let test_run_with_stats () =
  skip_unless_available ();
  let matmul =
    find
      [
        "../examples/lime/matmul.lime"; "examples/lime/matmul.lime";
        "_build/default/examples/lime/matmul.lime";
      ]
  in
  match matmul with
  | None -> Alcotest.skip ()
  | Some matmul ->
      let code, out =
        capture
          (matmul
         ^ " -w MatMul.multiply --run MatMulApp.main --arg 6 --arg 2 --stats")
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "firing summary" true
        (contains "run MatMulApp.main: 2 firings" out);
      Alcotest.(check bool) "comm leg histograms exposed" true
        (contains "lime_comm_pcie_seconds_bucket" out);
      Alcotest.(check bool) "kernel leg counted" true
        (contains "lime_comm_kernel_seconds_count 2" out);
      Alcotest.(check bool) "compile histogram exposed" true
        (contains "lime_compile_seconds_count 1" out)

let test_trace_output () =
  skip_unless_available ();
  let tracefile = Filename.temp_file "limec_trace" ".json" in
  let code, _ =
    capture
      (Printf.sprintf
         "%s -w NBody.computeForces --run NBodyApp.main --arg 16 --arg 1 \
          --trace %s"
         nbody (Filename.quote tracefile))
  in
  let json = In_channel.with_open_text tracefile In_channel.input_all in
  Sys.remove tracefile;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "traceEvents array" true
    (match
       Lime_support.Json.member "traceEvents"
         (Testutil.json_exn ~what:"trace" json)
     with
    | Some (Lime_support.Json.List (_ :: _)) -> true
    | _ -> false);
  (* the full compile nests in the trace... *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true (contains name json))
    [
      "pipeline.compile"; "pipeline.parse"; "pipeline.codegen";
      "service.compile"; "kcache.lookup";
    ];
  (* ...and so do all seven communication legs of the firings *)
  List.iter
    (fun leg ->
      Alcotest.(check bool) ("comm." ^ leg ^ " present") true
        (contains ("comm." ^ leg) json))
    [ "java_marshal"; "jni"; "c_marshal"; "setup"; "pcie"; "kernel"; "host" ]

let test_trace_summary_flag () =
  skip_unless_available ();
  let code, out =
    capture (nbody ^ " -w NBody.computeForces --trace-summary")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "summary banner" true (contains "trace summary" out);
  Alcotest.(check bool) "compile span aggregated" true
    (contains "pipeline.compile" out)

let test_profile_report () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody ^ " -w NBody.computeForces --profile --shape particles=1024x4")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "profile header" true (contains "kernel profile" out);
  Alcotest.(check bool) "flop mix" true (contains "FLOP mix" out);
  Alcotest.(check bool) "access table names the array" true
    (contains "particles" out);
  (* without --shape the report still renders, marked approximate *)
  let code, out = capture (nbody ^ " -w NBody.computeForces --profile") in
  Alcotest.(check int) "approx exit 0" 0 code;
  Alcotest.(check bool) "approximate counts flagged" true
    (contains "approximate" out)

let test_stats_unaffected_by_trace () =
  skip_unless_available ();
  (* tracing must not disturb the metrics: every deterministic sample
     (counters, firing counts, histogram observation counts — everything
     except the wall-clock-dependent sums/buckets) is identical with and
     without --trace *)
  let deterministic_lines out =
    String.split_on_char '\n' out
    |> List.filter (fun l ->
           contains "_count " l || contains "_total " l
           || contains "lime_firings" l)
    |> String.concat "\n"
  in
  let tracefile = Filename.temp_file "limec_trace" ".json" in
  let base = nbody ^ " -w NBody.computeForces --run NBodyApp.main --arg 8 --arg 1 --stats" in
  let code1, out1 = capture base in
  let code2, out2 =
    capture (base ^ " --trace " ^ Filename.quote tracefile)
  in
  Sys.remove tracefile;
  Alcotest.(check int) "plain exit 0" 0 code1;
  Alcotest.(check int) "traced exit 0" 0 code2;
  Alcotest.(check bool) "some samples compared" true
    (deterministic_lines out1 <> "");
  Alcotest.(check string) "identical metric counts" (deterministic_lines out1)
    (deterministic_lines out2)

let test_jobs_roundtrip () =
  skip_unless_available ();
  (* --jobs 1 is the sequential compiler: byte-identical output *)
  let base = nbody ^ " -w NBody.computeForces --emit-opencl" in
  let code0, out0 = capture base in
  let code1, out1 = capture (base ^ " --jobs 1") in
  let code4, out4 = capture (base ^ " --jobs 4") in
  Alcotest.(check int) "plain exit 0" 0 code0;
  Alcotest.(check int) "--jobs 1 exit 0" 0 code1;
  Alcotest.(check int) "--jobs 4 exit 0" 0 code4;
  Alcotest.(check string) "--jobs 1 output identical" out0 out1;
  Alcotest.(check string) "--jobs 4 output identical" out0 out4

let test_jobs_rejected () =
  skip_unless_available ();
  List.iter
    (fun n ->
      let code, out =
        capture (Printf.sprintf "%s -w NBody.computeForces --jobs=%d" nbody n)
      in
      Alcotest.(check int) (Printf.sprintf "--jobs=%d exits 2" n) 2 code;
      Alcotest.(check bool) "names the flag" true (contains "bad --jobs" out))
    [ 0; -3 ]

let test_multi_file_batch () =
  skip_unless_available ();
  let matmul =
    find
      [
        "../examples/lime/matmul.lime"; "examples/lime/matmul.lime";
        "_build/default/examples/lime/matmul.lime";
      ]
  in
  match matmul with
  | None -> Alcotest.skip ()
  | Some matmul ->
      (* several files with one worker: per-file results, one bad file
         fails its own request without aborting the rest *)
      let code, out =
        capture
          (Printf.sprintf "%s %s -w NBody.computeForces --jobs 4" nbody matmul)
      in
      Alcotest.(check int) "one failure -> exit 1" 1 code;
      Alcotest.(check bool) "nbody compiled" true
        (contains "kernel NBody.computeForces" out);
      Alcotest.(check bool) "matmul failed with diagnostic" true
        (contains "unknown worker" out);
      Alcotest.(check bool) "summary line printed" true
        (contains "1 compiled, 1 failed" out);
      (* batch mode refuses per-artifact actions *)
      let code, out =
        capture
          (Printf.sprintf "%s %s -w NBody.computeForces --emit-opencl" nbody
             matmul)
      in
      Alcotest.(check int) "per-artifact flag exits 2" 2 code;
      Alcotest.(check bool) "explains the restriction" true
        (contains "single FILE" out)

let test_counters_report () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody
     ^ " -w NBody.computeForces --counters gtx8800 --shape particles=4096x4")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "device named" true (contains "GTX 8800" out);
  Alcotest.(check bool) "transactions row" true (contains "transactions" out);
  Alcotest.(check bool) "coalesced split" true (contains "coalesced" out);
  Alcotest.(check bool) "roofline verdict" true
    (contains "roofline: compute-bound" out);
  Alcotest.(check bool) "arithmetic intensity" true
    (contains "arithmetic intensity" out);
  Alcotest.(check bool) "achieved bandwidth" true
    (contains "achieved bandwidth" out)

let test_counters_matmul () =
  skip_unless_available ();
  let matmul =
    find
      [
        "../examples/lime/matmul.lime"; "examples/lime/matmul.lime";
        "_build/default/examples/lime/matmul.lime";
      ]
  in
  match matmul with
  | None -> Alcotest.skip ()
  | Some matmul ->
      let code, out =
        capture
          (matmul
         ^ " -w MatMul.multiply --counters gtx8800 --shape packed=1024x32")
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "counter table" true
        (contains "hardware counters" out);
      Alcotest.(check bool) "bank-conflict row" true
        (contains "bank-conflict replays" out);
      Alcotest.(check bool) "roofline line" true (contains "roofline:" out)

let test_counters_requires_shape () =
  skip_unless_available ();
  let code, out = capture (nbody ^ " -w NBody.computeForces --counters gtx8800") in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "names the missing flag" true
    (contains "--counters requires at least one --shape" out)

(* --estimate and --counters price a launch exactly as the sweep does:
   for every registry workload (test scale) under every --config on every
   device, the printed estimate line and counter table are the ones
   Autotune.time_config_ex yields for the same kernel and shapes *)
let test_estimate_agrees_with_sweep () =
  skip_unless_available ();
  let module B = Lime_benchmarks.Bench_def in
  List.iter
    (fun (b : B.t) ->
      let src = Filename.temp_file "workload" ".lime" in
      Out_channel.with_open_text src (fun oc ->
          Out_channel.output_string oc b.B.source_small);
      let k =
        (Lime_gpu.Pipeline.compile ~worker:b.B.worker b.B.source_small)
          .Lime_gpu.Pipeline.cp_kernel
      in
      let shapes, _ =
        Lime_runtime.Engine.shapes_of_args k [ b.B.input_small () ]
      in
      let shape_flags =
        String.concat " "
          (List.map
             (fun (n, s) ->
               Printf.sprintf "--shape %s=%s" n
                 (String.concat "x"
                    (Array.to_list (Array.map string_of_int s))))
             shapes)
      in
      List.iter
        (fun (cname, cfg) ->
          List.iter
            (fun (dname, d) ->
              let case = Printf.sprintf "%s/%s/%s" b.B.name cname dname in
              let code, out =
                capture
                  (Printf.sprintf "%s -w %s -c %s --estimate %s --counters %s %s"
                     src b.B.worker cname dname dname shape_flags)
              in
              let bd, ct =
                Gpusim.Autotune.time_config_ex d k cfg ~shapes ~scalars:[]
              in
              Alcotest.(check int) (case ^ ": exit 0") 0 code;
              Alcotest.(check bool) (case ^ ": sweep's estimate") true
                (contains
                   (Fmt.str "estimate: %a" Gpusim.Model.pp_breakdown bd)
                   out);
              Alcotest.(check bool) (case ^ ": sweep's counters") true
                (contains (Gpusim.Counters.report ct) out))
            Lime_sched.Placement.devices)
        Lime_server.Server.configs;
      Sys.remove src)
    Lime_benchmarks.Registry.workloads

let test_batch_rejects_inspection_flags () =
  skip_unless_available ();
  let matmul =
    find
      [
        "../examples/lime/matmul.lime"; "examples/lime/matmul.lime";
        "_build/default/examples/lime/matmul.lime";
      ]
  in
  match matmul with
  | None -> Alcotest.skip ()
  | Some matmul ->
      List.iter
        (fun flags ->
          let code, out =
            capture
              (Printf.sprintf "%s %s -w NBody.computeForces %s" nbody matmul
                 flags)
          in
          Alcotest.(check int) (flags ^ " exits 2") 2 code;
          Alcotest.(check bool) (flags ^ " explains the restriction") true
            (contains "single FILE" out))
        [
          "--counters gtx8800 --shape particles=1024x4";
          "--profile --shape particles=1024x4";
          "--shape particles=1024x4";
        ]

let test_batch_manifest () =
  skip_unless_available ();
  let matmul =
    find
      [
        "../examples/lime/matmul.lime"; "examples/lime/matmul.lime";
        "_build/default/examples/lime/matmul.lime";
      ]
  in
  match matmul with
  | None -> Alcotest.skip ()
  | Some matmul ->
      let manifest = Filename.temp_file "limec_batch" ".manifest" in
      Out_channel.with_open_text manifest (fun oc ->
          Printf.fprintf oc
            "# two programs, the second under an explicit config\n\
             %s NBody.computeForces\n\n\
             %s MatMul.multiply local+pad+vec  # inline comment\n"
            nbody matmul);
      let code, out =
        capture
          (Printf.sprintf "--batch %s --jobs 2" (Filename.quote manifest))
      in
      Sys.remove manifest;
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "nbody compiled" true
        (contains "kernel NBody.computeForces" out);
      Alcotest.(check bool) "matmul compiled" true
        (contains "kernel MatMul.multiply" out);
      Alcotest.(check bool) "batch summary" true
        (contains "2 compiled, 0 failed" out)

let test_cache_capacity_rejected () =
  skip_unless_available ();
  List.iter
    (fun n ->
      let code, out =
        capture
          (Printf.sprintf "%s -w NBody.computeForces --cache-capacity=%d"
             nbody n)
      in
      Alcotest.(check int) (Printf.sprintf "--cache-capacity=%d exits 2" n) 2
        code;
      Alcotest.(check bool) "names the flag" true
        (contains "bad --cache-capacity" out);
      Alcotest.(check bool) "states the requirement" true
        (contains "positive" out))
    [ 0; -4 ]

let test_cache_capacity_accepted () =
  skip_unless_available ();
  (* an explicit capacity changes nothing about a single compile's output *)
  let base = nbody ^ " -w NBody.computeForces --emit-opencl" in
  let code0, out0 = capture base in
  let code1, out1 = capture (base ^ " --cache-capacity 3") in
  Alcotest.(check int) "plain exit 0" 0 code0;
  Alcotest.(check int) "capped exit 0" 0 code1;
  Alcotest.(check string) "output identical" out0 out1

let test_batch_manifest_malformed () =
  skip_unless_available ();
  (* a bad line must be reported as FILE:LINE, 1-based, before any
     compilation starts *)
  let manifest = Filename.temp_file "limec_batch" ".manifest" in
  Out_channel.with_open_text manifest (fun oc ->
      Printf.fprintf oc
        "# header comment\n%s NBody.computeForces\ntoo many words on this \
         line here\n"
        nbody);
  let code, out = capture (Printf.sprintf "--batch %s" (Filename.quote manifest)) in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "names file and line" true
    (contains (Filename.basename manifest ^ ":3") out);
  Alcotest.(check bool) "shows the expected grammar" true
    (contains "expected FILE WORKER [CONFIG]" out);
  Alcotest.(check bool) "quotes the offending line" true
    (contains "too many words" out);
  Alcotest.(check bool) "nothing compiled" false (contains "kernel " out);
  (* an unknown config name is caught at parse time with the same shape *)
  Out_channel.with_open_text manifest (fun oc ->
      Printf.fprintf oc "%s NBody.computeForces warp-speed\n" nbody);
  let code, out = capture (Printf.sprintf "--batch %s" (Filename.quote manifest)) in
  Sys.remove manifest;
  Alcotest.(check int) "unknown config exits 2" 2 code;
  Alcotest.(check bool) "line 1 named" true
    (contains (Filename.basename manifest ^ ":1") out);
  Alcotest.(check bool) "config named" true (contains "warp-speed" out);
  Alcotest.(check bool) "alternatives listed" true
    (contains "local+pad+vec" out)

(* daemon flag validation: every bad value must exit 2 with a usage
   message before the socket is ever bound *)

let dead_sock () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "limed-cli-%d.sock" (Unix.getpid ()))

let test_daemon_bad_http_port () =
  skip_unless_available ();
  List.iter
    (fun p ->
      let code, out =
        capture (Printf.sprintf "--daemon %s --http=%d" (dead_sock ()) p)
      in
      Alcotest.(check int) (Printf.sprintf "--http=%d exits 2" p) 2 code;
      Alcotest.(check bool) "names the flag" true (contains "bad --http" out);
      Alcotest.(check bool) "explains the range" true
        (contains "port" out))
    [ -1; 65536; 100000 ]

let test_daemon_bad_flight_capacity () =
  skip_unless_available ();
  let code, out =
    capture
      (Printf.sprintf "--daemon %s --flight-capacity 0" (dead_sock ()))
  in
  Alcotest.(check int) "--flight-capacity 0 exits 2" 2 code;
  Alcotest.(check bool) "names the flag" true
    (contains "bad --flight-capacity" out);
  Alcotest.(check bool) "states the requirement" true
    (contains "at least 1" out)

let test_daemon_bad_slo_spec () =
  skip_unless_available ();
  List.iter
    (fun spec ->
      let code, out =
        capture
          (Printf.sprintf "--daemon %s --slo %s" (dead_sock ())
             (Filename.quote spec))
      in
      Alcotest.(check int) (spec ^ " exits 2") 2 code;
      Alcotest.(check bool) "names the flag" true (contains "bad --slo" out);
      Alcotest.(check bool) "shows the grammar" true
        (contains "[NAME=]" out))
    [ "throughput:0.9"; "latency:0.95"; "availability:2" ]

let test_daemon_flags_need_daemon () =
  skip_unless_available ();
  List.iter
    (fun flags ->
      let code, out =
        capture
          (Printf.sprintf "%s -w NBody.computeForces %s" nbody flags)
      in
      Alcotest.(check int) (flags ^ " exits 2") 2 code;
      Alcotest.(check bool) (flags ^ " points at --daemon") true
        (contains "--daemon" out))
    [ "--flight-capacity 8"; "--flight-dump /tmp/fr.jsonl";
      "--slo availability:0.99" ]

(* ------------------------------------------------------------------ *)
(* bench/main.exe: workload validation                                *)
(* ------------------------------------------------------------------ *)

let bench =
  find
    [
      "../bench/main.exe"; "bench/main.exe"; "_build/default/bench/main.exe";
    ]

let bench_available = bench <> None
let bench = Option.value bench ~default:"bench/main.exe"

let capture_bench args =
  let out = Filename.temp_file "bench" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote bench) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let skip_unless_bench () = if not bench_available then Alcotest.skip ()

(* the registry-miss UX: a typo'd workload lists what exists, exit 2 *)
let test_unknown_workload () =
  skip_unless_bench ();
  let code, out = capture_bench "--workload warp-speed validate" in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "names the unknown workload" true
    (contains "unknown workload warp-speed" out);
  Alcotest.(check bool) "lists the available names" true
    (contains "available:" out && contains "TMatMul" out
    && contains "Mosaic" out);
  Alcotest.(check bool) "nothing validated" false (contains "Benchmark" out)

(* bench/ reports modelled seconds only; the toolchain's wall-clock
   timings live in perfbench/, so the old timing experiments are gone *)
let test_timing_experiments_gone () =
  skip_unless_bench ();
  let code, out = capture_bench "server" in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "names the unknown experiment" true
    (contains "unknown experiment server; available: " out);
  let available =
    match String.split_on_char ':' (String.trim out) with
    | [ _; names ] ->
        List.map String.trim (String.split_on_char ',' names)
    | _ -> Alcotest.failf "unexpected diagnostic: %s" out
  in
  Alcotest.(check bool) "lists the paper experiments" true
    (List.mem "table1" available && List.mem "glue" available);
  List.iter
    (fun gone ->
      Alcotest.(check bool) (gone ^ " not listed") false
        (List.mem gone available))
    [ "service"; "server"; "parallel"; "trace"; "compiler"; "runtime" ]

let test_workload_filter () =
  skip_unless_bench ();
  let code, out = capture_bench "--workload TMatMul validate" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "selected workload ran" true (contains "TMatMul" out);
  Alcotest.(check bool) "others filtered out" false (contains "Mosaic" out)

let test_devices_table () =
  skip_unless_available ();
  let code, out = capture "--devices" in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (contains name out))
    [ "gtx8800"; "gtx580"; "hd5970"; "corei7" ];
  Alcotest.(check bool) "PCIe column" true (contains "PCIe" out)

let test_multi_device_auto_run () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody
     ^ " -w NBody.computeForces --run NBodyApp.main --arg 24 --arg 1 \
        --multi-device auto")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "placement line" true (contains "placement " out);
  Alcotest.(check bool) "overlap report" true (contains "overlapped: " out)

let test_multi_device_spec_run () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody
     ^ " -w NBody.computeForces --run NBodyApp.main --arg 24 --arg 1 \
        --multi-device NBody.computeForces=gtx580")
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "pinned device honoured" true
    (contains "NBody.computeForces=gtx580" out)

let test_multi_device_needs_run () =
  skip_unless_available ();
  let code, out =
    capture (nbody ^ " -w NBody.computeForces --multi-device auto")
  in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "explains the requirement" true
    (contains "--multi-device needs --run" out)

let test_multi_device_bad_spec () =
  skip_unless_available ();
  let code, out =
    capture
      (nbody
     ^ " -w NBody.computeForces --run NBodyApp.main --arg 24 --arg 1 \
        --multi-device NBody.computeForces=nodev")
  in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "names the bad device" true
    (contains "bad --multi-device" out)

let () =
  Alcotest.run "cli"
    [
      ( "limec",
        [
          Alcotest.test_case "default summary" `Quick test_default_summary;
          Alcotest.test_case "emit-opencl" `Quick test_emit_opencl;
          Alcotest.test_case "estimate" `Quick test_estimate;
          Alcotest.test_case "sweep" `Quick test_sweep;
          Alcotest.test_case "error reporting" `Quick test_error_reporting;
          Alcotest.test_case "unknown worker" `Quick test_unknown_worker;
          Alcotest.test_case "bad shape" `Quick test_bad_shape;
          Alcotest.test_case "unknown device" `Quick test_unknown_device;
          Alcotest.test_case "cache-dir warm sweep" `Quick
            test_cache_dir_warm_sweep;
          Alcotest.test_case "run with stats" `Quick test_run_with_stats;
          Alcotest.test_case "trace output" `Quick test_trace_output;
          Alcotest.test_case "trace summary flag" `Quick
            test_trace_summary_flag;
          Alcotest.test_case "profile report" `Quick test_profile_report;
          Alcotest.test_case "stats unaffected by trace" `Quick
            test_stats_unaffected_by_trace;
          Alcotest.test_case "--jobs round-trips" `Quick test_jobs_roundtrip;
          Alcotest.test_case "--jobs rejects non-positive" `Quick
            test_jobs_rejected;
          Alcotest.test_case "multi-file batch" `Quick test_multi_file_batch;
          Alcotest.test_case "counters report (nbody)" `Quick
            test_counters_report;
          Alcotest.test_case "counters report (matmul)" `Quick
            test_counters_matmul;
          Alcotest.test_case "counters needs a shape" `Quick
            test_counters_requires_shape;
          Alcotest.test_case "estimate and counters agree with sweep" `Quick
            test_estimate_agrees_with_sweep;
          Alcotest.test_case "batch rejects inspection flags" `Quick
            test_batch_rejects_inspection_flags;
          Alcotest.test_case "batch manifest" `Quick test_batch_manifest;
          Alcotest.test_case "--cache-capacity rejects non-positive" `Quick
            test_cache_capacity_rejected;
          Alcotest.test_case "--cache-capacity round-trips" `Quick
            test_cache_capacity_accepted;
          Alcotest.test_case "malformed manifest names file:line" `Quick
            test_batch_manifest_malformed;
          Alcotest.test_case "--http rejects bad ports" `Quick
            test_daemon_bad_http_port;
          Alcotest.test_case "--flight-capacity rejects 0" `Quick
            test_daemon_bad_flight_capacity;
          Alcotest.test_case "--slo rejects bad specs" `Quick
            test_daemon_bad_slo_spec;
          Alcotest.test_case "daemon flags need --daemon" `Quick
            test_daemon_flags_need_daemon;
          Alcotest.test_case "--devices table" `Quick test_devices_table;
          Alcotest.test_case "multi-device auto run" `Quick
            test_multi_device_auto_run;
          Alcotest.test_case "multi-device pinned spec" `Quick
            test_multi_device_spec_run;
          Alcotest.test_case "multi-device needs --run" `Quick
            test_multi_device_needs_run;
          Alcotest.test_case "multi-device rejects bad spec" `Quick
            test_multi_device_bad_spec;
        ] );
      ( "bench",
        [
          Alcotest.test_case "unknown workload lists available" `Quick
            test_unknown_workload;
          Alcotest.test_case "workload filter" `Quick test_workload_filter;
          Alcotest.test_case "timing experiments are gone" `Quick
            test_timing_experiments_gone;
        ] );
    ]
