(* The compile service layer (lib/service): content-addressed digests,
   the LRU kernel cache with request coalescing, the file-backed tunestore,
   the metrics registry, and the wired-up instrumentation. *)

module Digest = Lime_service.Digest
module Kcache = Lime_service.Kcache
module Tunestore = Lime_service.Tunestore
module Metrics = Lime_service.Metrics
module Sketch = Lime_service.Sketch
module Service = Lime_service.Service
module Memopt = Lime_gpu.Memopt

let doubler_source =
  {|
class Doubler {
  static local float twice(float x) { return x * 2.0f; }
  static local float[[]] apply(float[[]] xs) { return Doubler.twice @ xs; }
}
|}

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)
(* ------------------------------------------------------------------ *)

let test_digest_field_order () =
  let a = Digest.of_fields [ ("worker", "W"); ("source", "S"); ("device", "d") ]
  and b = Digest.of_fields [ ("device", "d"); ("source", "S"); ("worker", "W") ] in
  Alcotest.(check bool) "field order irrelevant" true (Digest.equal a b);
  let c = Digest.of_fields [ ("worker", "W2"); ("source", "S"); ("device", "d") ] in
  Alcotest.(check bool) "different field -> different digest" false
    (Digest.equal a c);
  (* length framing: moving a character across a field boundary must not
     collide *)
  let d = Digest.of_fields [ ("a", "bc") ] and e = Digest.of_fields [ ("ab", "c") ] in
  Alcotest.(check bool) "length-framed" false (Digest.equal d e)

let test_digest_config_canonical () =
  (* structurally equal configs digest equally however they were built *)
  let via_record =
    {
      Memopt.use_private = true;
      use_local = true;
      pad_local = true;
      use_image = false;
      use_constant = false;
      vectorize = false;
    }
  in
  let via_updates = { Memopt.config_local with pad_local = true } in
  let k1 = Digest.of_request ~config:via_record ~worker:"W" "src"
  and k2 = Digest.of_request ~config:via_updates ~worker:"W" "src" in
  Alcotest.(check string) "canonical config digests" (Digest.to_hex k1)
    (Digest.to_hex k2);
  let k3 = Digest.of_request ~config:Memopt.config_all ~worker:"W" "src" in
  Alcotest.(check bool) "config matters" false (Digest.equal k1 k3)

let test_config_roundtrip () =
  List.iter
    (fun (name, cfg) ->
      match Digest.config_of_canonical (Digest.canonical_config cfg) with
      | Some cfg' ->
          Alcotest.(check bool) (name ^ " round-trips") true (cfg = cfg')
      | None -> Alcotest.failf "%s: canonical form did not parse" name)
    (("All", Memopt.config_all) :: Memopt.fig8_configs);
  Alcotest.(check bool) "garbage rejected" true
    (Digest.config_of_canonical "use_private=yes" = None);
  Alcotest.(check bool) "incomplete rejected" true
    (Digest.config_of_canonical "use_private=true" = None)

(* ------------------------------------------------------------------ *)
(* Kcache                                                              *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_order () =
  let c = Kcache.create ~capacity:2 () in
  ignore (Kcache.find_or_add c "k1" (fun () -> 1));
  ignore (Kcache.find_or_add c "k2" (fun () -> 2));
  (* touch k1 so k2 becomes the LRU victim *)
  ignore (Kcache.find_or_add c "k1" (fun () -> assert false));
  ignore (Kcache.find_or_add c "k3" (fun () -> 3));
  Alcotest.(check bool) "k2 evicted" false (Kcache.mem c "k2");
  Alcotest.(check bool) "k1 kept" true (Kcache.mem c "k1");
  Alcotest.(check bool) "k3 kept" true (Kcache.mem c "k3");
  Alcotest.(check int) "one eviction" 1 (Kcache.stats c).Kcache.evictions;
  Alcotest.(check (list string)) "recency order" [ "k3"; "k1" ]
    (Kcache.keys_by_recency c)

let test_hit_miss_counters () =
  let c = Kcache.create ~capacity:4 () in
  let compiles = ref 0 in
  let get k = Kcache.find_or_add c k (fun () -> incr compiles; k) in
  ignore (get "a");
  ignore (get "a");
  ignore (get "b");
  ignore (get "a");
  let s = Kcache.stats c in
  Alcotest.(check int) "misses" 2 s.Kcache.misses;
  Alcotest.(check int) "hits" 2 s.Kcache.hits;
  Alcotest.(check int) "compiles" 2 !compiles

let test_coalescing () =
  let svc = Service.create () in
  let compiles = ref 0 in
  let hooks = Lime_gpu.Pipeline.compile_hooks in
  Lime_support.Hooks.add hooks ~key:"test.coalescing" (fun _ -> incr compiles);
  Fun.protect
    ~finally:(fun () ->
      Lime_support.Hooks.remove hooks "test.coalescing";
      Service.shutdown svc)
    (fun () ->
      let burst =
        List.init 5 (fun _ ->
            Service.request ~worker:"Doubler.apply" doubler_source)
      in
      let results = Service.compile_many svc burst in
      let served =
        match results with
        | Ok first :: _ ->
            List.for_all
              (function Ok c -> c == first | Error _ -> false)
              results
        | _ -> false
      in
      Alcotest.(check bool) "all served" true served;
      Alcotest.(check int) "one result per request" 5 (List.length results);
      Alcotest.(check int) "one compile" 1 !compiles;
      let s = Service.stats svc in
      Alcotest.(check int) "one miss" 1 s.Kcache.misses;
      Alcotest.(check int) "rest coalesced" 4 s.Kcache.coalesced;
      Alcotest.(check int) "no hits during the burst" 0 s.Kcache.hits)

(* ------------------------------------------------------------------ *)
(* Tunestore                                                           *)
(* ------------------------------------------------------------------ *)

let test_tunestore_roundtrip () =
  let dir = temp_dir "lime_tunestore" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ts = Tunestore.open_ dir in
      let digest = Digest.of_request ~worker:"W" "src" in
      let r =
        {
          Tunestore.tr_config_name = "Local+Conflicts removed";
          tr_config = Memopt.config_local_noconflict;
          tr_time_s = 3.25e-4;
          tr_sequence = None;
          tr_placement = None;
        }
      in
      Alcotest.(check bool) "empty store misses" true
        (Tunestore.load ts ~digest ~device:"gtx8800" = None);
      Tunestore.store ts ~digest ~device:"gtx8800" r;
      (match Tunestore.load ts ~digest ~device:"gtx8800" with
      | Some r' ->
          Alcotest.(check string) "name" r.Tunestore.tr_config_name
            r'.Tunestore.tr_config_name;
          Alcotest.(check bool) "config" true
            (r.Tunestore.tr_config = r'.Tunestore.tr_config);
          Alcotest.(check (float 1e-9)) "time" r.Tunestore.tr_time_s
            r'.Tunestore.tr_time_s
      | None -> Alcotest.fail "stored entry did not load");
      Alcotest.(check bool) "other device misses" true
        (Tunestore.load ts ~digest ~device:"gtx580" = None);
      (* a version-1 file is a miss, well-formed or not *)
      Out_channel.with_open_text
        (Tunestore.path ts ~digest ~device:"gtx580")
        (fun oc ->
          Printf.fprintf oc "lime-tunestore 1\nname %s\nconfig %s\ntime_s %.9g\n"
            r.Tunestore.tr_config_name
            (Digest.canonical_config r.Tunestore.tr_config)
            r.Tunestore.tr_time_s);
      Alcotest.(check bool) "version-1 file is a miss" true
        (Tunestore.load ts ~digest ~device:"gtx580" = None);
      (* so is a format-4 file, which carried the winner's headline
         counters: a sweep now re-prices them with the stored best *)
      Out_channel.with_open_text
        (Tunestore.path ts ~digest ~device:"gtx580")
        (fun oc ->
          Printf.fprintf oc
            "lime-tunestore 4\nname %s\nconfig %s\ntime_s %.9g\n\
             occupancy 0.87\nbank_replays 1024\nroofline memory-bound\n"
            r.Tunestore.tr_config_name
            (Digest.canonical_config r.Tunestore.tr_config)
            r.Tunestore.tr_time_s);
      Alcotest.(check bool) "format-4 file is a miss" true
        (Tunestore.load ts ~digest ~device:"gtx580" = None);
      (* corrupt file -> miss, not crash *)
      Out_channel.with_open_text
        (Tunestore.path ts ~digest ~device:"gtx8800")
        (fun oc -> Out_channel.output_string oc "garbage\n");
      Alcotest.(check bool) "corrupt file is a miss" true
        (Tunestore.load ts ~digest ~device:"gtx8800" = None))

let test_sweep_consults_tunestore () =
  let dir = temp_dir "lime_svc_sweep" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = Service.create ~cache_dir:dir () in
      let c = Service.compile svc ~worker:"Doubler.apply" doubler_source in
      let digest =
        Service.request_digest ~device:"gtx8800" ~worker:"Doubler.apply"
          doubler_source
      in
      let kernel = c.Lime_gpu.Pipeline.cp_kernel in
      let shapes = [ ("xs", [| 4096 |]) ] in
      let entries1, status1 =
        Service.sweep svc Gpusim.Device.gtx8800 ~device_key:"gtx8800" ~digest
          kernel ~shapes ~scalars:[]
      in
      Alcotest.(check bool) "cold sweep misses" true (status1 = `Miss);
      Alcotest.(check int) "cold sweep times all eight" 8
        (List.length entries1);
      let entries2, status2 =
        Service.sweep svc Gpusim.Device.gtx8800 ~device_key:"gtx8800" ~digest
          kernel ~shapes ~scalars:[]
      in
      Alcotest.(check bool) "warm sweep hits" true (status2 = `Hit);
      (match
         Tunestore.load
           (Option.get (Service.tunestore svc))
           ~digest ~device:"gtx8800"
       with
      | Some r ->
          Alcotest.(check string) "stored best is the sweep winner"
            (List.hd entries1).Gpusim.Autotune.at_name
            r.Tunestore.tr_config_name
      | None -> Alcotest.fail "cold sweep stored no record");
      Alcotest.(check string) "warm sweep re-times the stored best"
        (List.hd entries1).Gpusim.Autotune.at_name
        (List.hd entries2).Gpusim.Autotune.at_name;
      Alcotest.(check int) "warm sweep times only the stored best" 1
        (List.length entries2);
      Alcotest.(check (float 1e-9)) "same winning time"
        (List.hd entries1).Gpusim.Autotune.at_time_s
        (List.hd entries2).Gpusim.Autotune.at_time_s;
      Alcotest.(check bool) "same winner's counters" true
        (compare (List.hd entries1).Gpusim.Autotune.at_counters
           (List.hd entries2).Gpusim.Autotune.at_counters
        = 0))

(* A miss on a pooled service prices the configurations on worker
   domains, all reading one shared analysis: the entries (order, times,
   breakdowns, counters) are the sequential sweep's. *)
let test_pool_sweep_is_sequential () =
  let b = Lime_benchmarks.Nbody.single in
  let c = Lime_benchmarks.Registry.compile_small b in
  let kernel = c.Lime_gpu.Pipeline.cp_kernel in
  let shapes, scalars =
    Lime_runtime.Engine.shapes_of_args kernel [ b.Lime_benchmarks.Bench_def.input_small () ]
  in
  let svc = Service.create ~jobs:2 () in
  let digest = Service.request_digest ~worker:"W" "src" in
  let pooled, status =
    Fun.protect
      ~finally:(fun () -> Service.shutdown svc)
      (fun () ->
        Service.sweep svc Gpusim.Device.gtx580 ~device_key:"gtx580" ~digest
          kernel ~shapes ~scalars)
  in
  Alcotest.(check bool) "no store: a miss" true (status = `Miss);
  Alcotest.(check bool) "pooled entries = sequential sweep" true
    (compare pooled
       (Gpusim.Autotune.sweep Gpusim.Device.gtx580 kernel ~shapes ~scalars)
    = 0)

(* Two domains tune different kernels on every device through one
   service.  Each beam search takes the memo the last search put back, or
   builds its own while the other domain holds it; either way it reaches
   a fresh search's outcome. *)
let test_concurrent_beam_searches () =
  let module E = Lime_benchmarks.Experiments in
  let module Search = Lime_rewrite.Search in
  let prepared name =
    match Lime_benchmarks.Registry.find name with
    | Some b -> E.prepare ~seed:1 b
    | None -> Alcotest.failf "%s missing from the registry" name
  in
  let ps = List.map prepared [ "Mosaic"; "JG-Series (Single)" ] in
  let kernel (p : E.prepared) = p.E.p_compiled.Lime_gpu.Pipeline.cp_kernel in
  let svc = Service.create ~jobs:2 () in
  let digest = Service.request_digest ~worker:"W" "src" in
  let tune (p : E.prepared) =
    List.map
      (fun (d : Gpusim.Device.t) ->
        match
          Service.beam_schedule svc d ~device_key:d.name ~digest (kernel p)
            ~shapes:p.E.p_shapes ~scalars:p.E.p_scalars
        with
        | _, `Searched o -> o
        | _, `Replayed -> Alcotest.fail "no store, yet a replay")
      Gpusim.Device.all
  in
  let got =
    Fun.protect
      ~finally:(fun () -> Service.shutdown svc)
      (fun () ->
        List.map Domain.join
          (List.map (fun p -> Domain.spawn (fun () -> tune p)) ps))
  in
  let state_md5 (o : Search.outcome) =
    Stdlib.Digest.string
      (Marshal.to_string o.Search.so_best.Search.sc_state
         [ Marshal.No_sharing ])
  in
  List.iter2
    (fun p outcomes ->
      List.iter2
        (fun (d : Gpusim.Device.t) (o : Search.outcome) ->
          let want =
            Search.search d (kernel p) ~shapes:p.E.p_shapes
              ~scalars:p.E.p_scalars
          in
          let what =
            p.E.p_bench.Lime_benchmarks.Bench_def.name ^ " on " ^ d.name
          in
          Alcotest.(check (list string))
            (what ^ ": best sequence")
            want.Search.so_best.Search.sc_sequence
            o.Search.so_best.Search.sc_sequence;
          Alcotest.(check (float 0.0))
            (what ^ ": best time")
            want.Search.so_best.Search.sc_time_s
            o.Search.so_best.Search.sc_time_s;
          Alcotest.(check bool) (what ^ ": best state") true
            (state_md5 want = state_md5 o);
          Alcotest.(check (pair int int))
            (what ^ ": evaluations, depth")
            (want.Search.so_evals, want.Search.so_depth_reached)
            (o.Search.so_evals, o.Search.so_depth_reached))
        Gpusim.Device.all outcomes)
    ps got

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_exposition_snapshot () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"requests served" "svc_requests_total" in
  Metrics.inc c;
  Metrics.inc ~by:2 c;
  let g = Metrics.gauge reg "svc_queue_depth" in
  Metrics.set g 3.5;
  let h =
    Metrics.histogram reg ~buckets:[ 0.001; 0.1 ] "svc_latency_seconds"
  in
  Metrics.observe h 0.0005;
  Metrics.observe h 0.05;
  Metrics.observe h 7.0;
  let want =
    "# HELP svc_latency_seconds\n\
     # TYPE svc_latency_seconds histogram\n\
     svc_latency_seconds_bucket{le=\"0.001\"} 1\n\
     svc_latency_seconds_bucket{le=\"0.1\"} 2\n\
     svc_latency_seconds_bucket{le=\"+Inf\"} 3\n\
     svc_latency_seconds_sum 7.0505\n\
     svc_latency_seconds_count 3\n\
     # HELP svc_queue_depth\n\
     # TYPE svc_queue_depth gauge\n\
     svc_queue_depth 3.5\n\
     # HELP svc_requests_total requests served\n\
     # TYPE svc_requests_total counter\n\
     svc_requests_total 3\n"
  in
  Alcotest.(check string) "exposition snapshot" want (Metrics.expose reg);
  Metrics.reset reg;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Alcotest.(check int) "reset zeroes histograms" 0 (Metrics.histogram_count h)

let test_metric_kind_collision () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "m");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: m is not a gauge") (fun () ->
      ignore (Metrics.gauge reg "m"))

let test_metrics_labeled_family () =
  (* static labels are baked into the metric's identity: several label
     sets of one family render as adjacent samples sharing one HELP/TYPE
     block, with label values escaped per the text format *)
  let reg = Metrics.create () in
  let g1 =
    Metrics.gauge reg ~help:"build identity"
      ~labels:[ ("version", "1.0.0"); ("proto", "2") ]
      "svc_build_info"
  in
  Metrics.set g1 1.0;
  let g2 =
    Metrics.gauge reg
      ~labels:[ ("version", "0.9\"q\\b\nnl"); ("proto", "1") ]
      "svc_build_info"
  in
  Metrics.set g2 1.0;
  let want =
    "# HELP svc_build_info build identity\n\
     # TYPE svc_build_info gauge\n\
     svc_build_info{version=\"0.9\\\"q\\\\b\\nnl\",proto=\"1\"} 1\n\
     svc_build_info{version=\"1.0.0\",proto=\"2\"} 1\n"
  in
  Alcotest.(check string) "one metadata block, escaped label values" want
    (Metrics.expose reg);
  (* same name + same labels is the same metric, not a new sample *)
  let g1' =
    Metrics.gauge reg
      ~labels:[ ("version", "1.0.0"); ("proto", "2") ]
      "svc_build_info"
  in
  Metrics.set g1' 5.0;
  Alcotest.(check bool) "re-registration returns the existing metric" true
    (Lime_support.Util.contains_substring
       ~sub:"svc_build_info{version=\"1.0.0\",proto=\"2\"} 5"
       (Metrics.expose reg))

let test_metrics_exemplar_exposition () =
  (* an exemplared observation rides its bucket line as an OpenMetrics
     [# {trace_id="…"} value] suffix, with the id escaped; buckets that
     never saw an exemplar render exactly as before *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[ 0.1 ] "ex_latency_seconds" in
  Metrics.observe h 0.05;
  Metrics.observe ~exemplar:"trace\"1" h 0.07;
  Metrics.observe ~exemplar:"big" h 7.0;
  let want =
    "# HELP ex_latency_seconds\n\
     # TYPE ex_latency_seconds histogram\n\
     ex_latency_seconds_bucket{le=\"0.1\"} 2 # {trace_id=\"trace\\\"1\"} 0.07\n\
     ex_latency_seconds_bucket{le=\"+Inf\"} 3 # {trace_id=\"big\"} 7\n\
     ex_latency_seconds_sum 7.12\n\
     ex_latency_seconds_count 3\n"
  in
  Alcotest.(check string) "exemplar suffixes, escaped" want
    (Metrics.expose reg);
  (* an empty exemplar is ignored, and reset clears the stored ones *)
  Metrics.observe ~exemplar:"" h 0.01;
  Metrics.reset reg;
  Metrics.observe h 0.02;
  Alcotest.(check bool) "no exemplars after reset" false
    (Lime_support.Util.contains_substring ~sub:"trace_id"
       (Metrics.expose reg))

let test_metrics_summary_exposition () =
  let reg = Metrics.create () in
  let now = ref 0.0 in
  let s =
    Metrics.summary reg ~help:"request latency"
      ~quantiles:[ 0.5; 0.99 ]
      ~windows:[ ("1m", 60.0) ]
      ~clock:(fun () -> !now)
      "svc_latency_summary"
  in
  (* a fresh summary exposes metadata and totals but no quantile
     samples (never NaN) *)
  let exposed = Metrics.expose reg in
  let contains sub = Lime_support.Util.contains_substring ~sub exposed in
  Alcotest.(check bool) "summary TYPE" true
    (contains "# TYPE svc_latency_summary summary");
  Alcotest.(check bool) "no quantiles while empty" false
    (contains "quantile=");
  Alcotest.(check bool) "zero count while empty" true
    (contains "svc_latency_summary_count 0");
  (* 100 observations of 1ms..100ms: the medians must land within the
     sketch's relative-error bound of the exact rank *)
  for i = 1 to 100 do
    Metrics.observe_summary s (float_of_int i /. 1000.0)
  done;
  let exposed = Metrics.expose reg in
  let contains sub = Lime_support.Util.contains_substring ~sub exposed in
  Alcotest.(check bool) "cumulative quantile line" true
    (contains "svc_latency_summary{quantile=\"0.5\"}");
  Alcotest.(check bool) "windowed quantile line" true
    (contains "svc_latency_summary{window=\"1m\",quantile=\"0.99\"}");
  Alcotest.(check bool) "count line" true
    (contains "svc_latency_summary_count 100");
  (match Metrics.summary_quantile s 0.5 with
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "median %.4f within 1%% of 0.050" v)
        true
        (Float.abs (v -. 0.050) <= 0.050 *. Sketch.default_alpha +. 1e-9)
  | None -> Alcotest.fail "cumulative quantile empty");
  (match Metrics.summary_quantile s ~window_s:60.0 0.99 with
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "windowed p99 %.4f within 1%% of 0.099" v)
        true
        (Float.abs (v -. 0.099) <= 0.099 *. Sketch.default_alpha +. 1e-9)
  | None -> Alcotest.fail "windowed quantile empty");
  (* five minutes later the 1m window has rotated empty: its quantile
     lines vanish while the cumulative ones survive *)
  now := 300.0;
  let exposed = Metrics.expose reg in
  let contains sub = Lime_support.Util.contains_substring ~sub exposed in
  Alcotest.(check bool) "rotated window emits no quantiles" false
    (contains "window=\"1m\"");
  Alcotest.(check bool) "cumulative quantiles survive rotation" true
    (contains "svc_latency_summary{quantile=\"0.5\"}");
  Metrics.reset reg;
  Alcotest.(check int) "reset zeroes the summary" 0 (Metrics.summary_count s)

let test_metrics_help_escaping () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg ~help:"line one\nback\\slash" "esc_total");
  let want =
    "# HELP esc_total line one\\nback\\\\slash\n\
     # TYPE esc_total counter\n\
     esc_total 0\n"
  in
  Alcotest.(check string) "help escapes newline and backslash" want
    (Metrics.expose reg)

(* ------------------------------------------------------------------ *)
(* Service end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let test_repeat_compile_served_from_cache () =
  let svc = Service.create () in
  let c1, o1 = Service.compile_ex svc ~worker:"Doubler.apply" doubler_source in
  let c2, o2 = Service.compile_ex svc ~worker:"Doubler.apply" doubler_source in
  Alcotest.(check bool) "first compile is fresh" true (o1 = Service.Compiled);
  Alcotest.(check bool) "second is a memory hit" true (o2 = Service.Memory);
  Alcotest.(check string) "same artifact" c1.Lime_gpu.Pipeline.cp_opencl
    c2.Lime_gpu.Pipeline.cp_opencl;
  let s = Service.stats svc in
  Alcotest.(check int) "one miss" 1 s.Kcache.misses;
  Alcotest.(check int) "one hit" 1 s.Kcache.hits;
  (* a different config is a different artifact, not a hit *)
  ignore
    (Service.compile svc ~config:Memopt.config_global ~worker:"Doubler.apply"
       doubler_source);
  Alcotest.(check int) "different config misses" 2 (Service.stats svc).Kcache.misses

let test_disk_cache_across_services () =
  let dir = temp_dir "lime_svc_disk" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc1 = Service.create ~cache_dir:dir () in
      let c1, o1 =
        Service.compile_ex svc1 ~worker:"Doubler.apply" doubler_source
      in
      Alcotest.(check bool) "cold process compiles" true (o1 = Service.Compiled);
      (* a second service over the same directory models a new process *)
      let svc2 = Service.create ~cache_dir:dir () in
      let c2, o2 =
        Service.compile_ex svc2 ~worker:"Doubler.apply" doubler_source
      in
      Alcotest.(check bool) "warm process loads from disk" true
        (o2 = Service.Disk);
      Alcotest.(check string) "identical artifact" c1.Lime_gpu.Pipeline.cp_opencl
        c2.Lime_gpu.Pipeline.cp_opencl;
      (* the artifact is executable, not just storable: run the kernel *)
      let st = Lime_ir.Interp.create (Lime_gpu.Kernel.to_module c2.Lime_gpu.Pipeline.cp_kernel) in
      let xs = Lime_ir.Value.of_float_array [| 1.0; 2.5 |] in
      let v =
        Lime_ir.Interp.call_function st "Doubler.apply" None
          [ Lime_ir.Value.VArr xs ]
      in
      let want = Lime_ir.Value.of_float_array [| 2.0; 5.0 |] in
      Alcotest.(check bool) "cached kernel computes" true
        (Lime_ir.Value.approx_equal ~rtol:0.0 ~atol:0.0 v
           (Lime_ir.Value.VArr want)))

(* a stored artifact with one bit flipped — in the magic, the checksum or
   the marshalled body — is a miss that recompiles to the same kernel,
   never a crash or a wrong kernel loaded from disk *)
let test_corrupt_artifact_is_a_miss () =
  let dir = temp_dir "lime_svc_corrupt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let b = Lime_benchmarks.Nbody.single in
      let worker = b.Lime_benchmarks.Bench_def.worker in
      let source = b.Lime_benchmarks.Bench_def.source in
      let compile () =
        Service.compile_ex (Service.create ~cache_dir:dir ()) ~worker source
      in
      let want, _ = compile () in
      let describe c = Memopt.describe c.Lime_gpu.Pipeline.cp_decisions in
      let kernels = Filename.concat dir "kernels" in
      let art =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".art")
            (Array.to_list (Sys.readdir kernels))
        with
        | [ f ] -> Filename.concat kernels f
        | fs ->
            Alcotest.failf "%d artifacts stored, expected 1" (List.length fs)
      in
      let good = In_channel.with_open_bin art In_channel.input_all in
      let offsets =
        List.init ((String.length good + 36) / 37) (fun i -> i * 37)
      in
      List.iter
        (fun off ->
          let bad = Bytes.of_string good in
          Bytes.set bad off
            (Char.chr (Char.code good.[off] lxor (1 lsl (off mod 8))));
          Out_channel.with_open_bin art (fun oc ->
              Out_channel.output_bytes oc bad);
          let got, origin = compile () in
          let at = Printf.sprintf " (bit flipped at byte %d)" off in
          Alcotest.(check bool) ("a miss" ^ at) true
            (origin = Service.Compiled);
          Alcotest.(check string) ("same OpenCL" ^ at)
            want.Lime_gpu.Pipeline.cp_opencl got.Lime_gpu.Pipeline.cp_opencl;
          Alcotest.(check string) ("same placements" ^ at) (describe want)
            (describe got))
        offsets;
      (* the miss rewrote a good artifact: the next process hits disk *)
      Alcotest.(check bool) "rewritten artifact loads" true
        (snd (compile ()) = Service.Disk))

let test_instrumented_engine_run () =
  let reg = Metrics.create () in
  Service.instrument ~registry:reg ();
  Fun.protect
    ~finally:(fun () ->
      (* remove the keyed observers for other tests *)
      Service.uninstrument ())
    (fun () ->
      let b = Lime_benchmarks.Nbody.single in
      let c =
        Lime_gpu.Pipeline.compile ~worker:b.Lime_benchmarks.Bench_def.worker
          b.Lime_benchmarks.Bench_def.source
      in
      let _, report =
        Lime_runtime.Engine.run_program Lime_runtime.Engine.default_config
          c.Lime_gpu.Pipeline.cp_module ~cls:"NBodySim" ~meth:"main"
          [ Lime_ir.Value.VInt 64; Lime_ir.Value.VInt 3 ]
      in
      Alcotest.(check int) "three firings" 3
        report.Lime_runtime.Engine.firings;
      Alcotest.(check int) "compile counted" 1
        (Metrics.counter_value (Metrics.counter reg "lime_compile_total"));
      Alcotest.(check int) "device firings counted" 3
        (Metrics.counter_value
           (Metrics.counter reg "lime_firings_device_total"));
      Alcotest.(check int) "host firings counted" 6
        (Metrics.counter_value (Metrics.counter reg "lime_firings_host_total"));
      let kernel_h = Metrics.histogram reg "lime_comm_kernel_seconds" in
      Alcotest.(check int) "kernel leg observed per device firing" 3
        (Metrics.histogram_count kernel_h);
      Alcotest.(check bool) "kernel leg times are positive" true
        (Metrics.histogram_sum kernel_h > 0.0);
      let exposed = Metrics.expose reg in
      Alcotest.(check bool) "exposition names the comm legs" true
        (Lime_support.Util.contains_substring
           ~sub:"lime_comm_pcie_seconds_count" exposed))

let () =
  Alcotest.run "service"
    [
      ( "digest",
        [
          Alcotest.test_case "field order" `Quick test_digest_field_order;
          Alcotest.test_case "canonical config" `Quick
            test_digest_config_canonical;
          Alcotest.test_case "config round-trip" `Quick test_config_roundtrip;
        ] );
      ( "kcache",
        [
          Alcotest.test_case "lru eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "hit/miss counters" `Quick test_hit_miss_counters;
          Alcotest.test_case "coalescing" `Quick test_coalescing;
        ] );
      ( "tunestore",
        [
          Alcotest.test_case "round trip" `Quick test_tunestore_roundtrip;
          Alcotest.test_case "sweep consults store" `Quick
            test_sweep_consults_tunestore;
          Alcotest.test_case "pooled sweep = sequential" `Quick
            test_pool_sweep_is_sequential;
          Alcotest.test_case "concurrent beam searches = fresh" `Quick
            test_concurrent_beam_searches;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exposition snapshot" `Quick
            test_metrics_exposition_snapshot;
          Alcotest.test_case "kind collision" `Quick test_metric_kind_collision;
          Alcotest.test_case "help escaping" `Quick test_metrics_help_escaping;
          Alcotest.test_case "labeled family" `Quick
            test_metrics_labeled_family;
          Alcotest.test_case "exemplar exposition" `Quick
            test_metrics_exemplar_exposition;
          Alcotest.test_case "summary exposition" `Quick
            test_metrics_summary_exposition;
        ] );
      ( "service",
        [
          Alcotest.test_case "repeat compile cached" `Quick
            test_repeat_compile_served_from_cache;
          Alcotest.test_case "disk cache across services" `Quick
            test_disk_cache_across_services;
          Alcotest.test_case "corrupt artifact is a miss" `Quick
            test_corrupt_artifact_is_a_miss;
          Alcotest.test_case "instrumented engine run" `Quick
            test_instrumented_engine_run;
        ] );
    ]
