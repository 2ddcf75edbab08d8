(* The rewrite engine (lib/rewrite): catalog naming, canned Fig 8
   sequences vs the Fig 8 configurations, beam search vs the sweep on the
   registry workloads, schedule replay, and the tunestore's schedule records. *)

module Rewrite = Lime_rewrite.Rewrite
module Search = Lime_rewrite.Search
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Kernel = Lime_gpu.Kernel
module Device = Gpusim.Device
module Engine = Lime_runtime.Engine
module Registry = Lime_benchmarks.Registry
module E = Lime_benchmarks.Experiments
module Tunestore = Lime_service.Tunestore
module Digest = Lime_service.Digest
module Service = Lime_service.Service
module B = Lime_benchmarks.Bench_def
module V = Lime_ir.Value

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

(* A small nested-loop kernel every structural rewrite has a shot at. *)
let nest_source =
  {|
class Nest {
  static final int N = 8;
  static local float[[8]] row(float[[8][8]] a, int i) {
    float[] c = new float[8];
    for (int k = 0; k < N; k++) {
      for (int j = 0; j < N; j++) {
        c[j] = c[j] + (float) (i - k) * a[k][j];
      }
    }
    return { c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] };
  }
  static local float[[][8]] work(float[[8][8]] a) {
    return Nest.row(a) @ Lime.range(N);
  }
}
|}

let nest_kernel () =
  (Pipeline.compile ~worker:"Nest.work" nest_source).Pipeline.cp_kernel

(* a loop-free kernel: no structural rewrite applies *)
let flat_source =
  {|
class Flat {
  static local float twice(float x) { return x * 2.0f; }
  static local float[[]] work(float[[]] xs) { return Flat.twice @ xs; }
}
|}

let flat_kernel () =
  (Pipeline.compile ~worker:"Flat.work" flat_source).Pipeline.cp_kernel

(* ------------------------------------------------------------------ *)
(* Catalog and names                                                   *)
(* ------------------------------------------------------------------ *)

let test_catalog_names_roundtrip () =
  List.iter
    (fun (s : Rewrite.step) ->
      match Rewrite.of_name s.Rewrite.name with
      | Some s' ->
          Alcotest.(check string) "name round-trips" s.Rewrite.name
            s'.Rewrite.name
      | None -> Alcotest.failf "catalog step %s not found by name" s.name)
    Rewrite.catalog;
  Alcotest.(check bool) "parametric tile parses" true
    (match Rewrite.of_name "tile:16" with
    | Some s -> s.Rewrite.name = "tile:16"
    | None -> false);
  Alcotest.(check bool) "unknown name rejected" true
    (Rewrite.of_name "loopify" = None);
  Alcotest.(check bool) "degenerate tile rejected" true
    (Rewrite.of_name "tile:1" = None)

let test_sequence_string_roundtrip () =
  let seq = [ "local"; "pad"; "tile:4"; "interchange"; "vec" ] in
  Alcotest.(check (list string)) "round trip" seq
    (Rewrite.sequence_of_string (Rewrite.sequence_to_string seq));
  Alcotest.(check (list string)) "empty string is the empty schedule" []
    (Rewrite.sequence_of_string "")

(* ------------------------------------------------------------------ *)
(* Fig 8 sequences are the Fig 8 configurations                        *)
(* ------------------------------------------------------------------ *)

let test_fig8_sequences_match_configs () =
  let k = nest_kernel () in
  Alcotest.(check int) "eight sequences" 8 (List.length Rewrite.fig8_sequences);
  List.iter
    (fun (name, seq) ->
      let cfg =
        match List.assoc_opt name Memopt.fig8_configs with
        | Some c -> c
        | None -> Alcotest.failf "no Fig 8 configuration named %s" name
      in
      match Rewrite.apply_sequence (Rewrite.initial k) seq with
      | Error m -> Alcotest.failf "sequence %s rejected: %s" name m
      | Ok st ->
          Alcotest.(check bool)
            (name ^ " reaches its configuration")
            true
            (st.Rewrite.st_config = cfg);
          Alcotest.(check bool)
            (name ^ " leaves the kernel untouched")
            true
            (st.Rewrite.st_kernel = k))
    Rewrite.fig8_sequences

(* ------------------------------------------------------------------ *)
(* Rejection without miscompilation                                    *)
(* ------------------------------------------------------------------ *)

let test_illegal_applications_rejected () =
  let k = flat_kernel () in
  let st = Rewrite.initial k in
  List.iter
    (fun name ->
      match Rewrite.of_name name with
      | None -> Alcotest.failf "missing catalog step %s" name
      | Some step -> (
          match Rewrite.apply_step step st with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "%s applied to a loop-free kernel" name))
    [ "tile:2"; "interchange"; "unroll"; "fission" ];
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Rewrite.apply_sequence st [ "local"; "warp-shuffle" ] with
  | Error m ->
      Alcotest.(check bool) "unknown step named in the error" true
        (contains m "warp-shuffle")
  | Ok _ -> Alcotest.fail "unknown rewrite accepted"

(* ------------------------------------------------------------------ *)
(* Beam search: never worse than the Fig 8 sweep, strictly better on
   TMatMul (the ISSUE acceptance bar, on every Table 2 device)         *)
(* ------------------------------------------------------------------ *)

let test_beam_at_least_fig8_everywhere () =
  let devices = E.gpu_devices @ [ Device.core_i7 ] in
  List.iter
    (fun (d : Device.t) ->
      let rows = E.optimize_rows ~quick:true ~seed:1 d in
      Alcotest.(check int)
        ("all workloads searched on " ^ d.Device.name)
        (List.length Registry.workloads)
        (List.length rows);
      List.iter
        (fun (r : E.optimize_row) ->
          if r.E.op_beam_s > r.E.op_fig8_s +. 1e-15 then
            Alcotest.failf "%s on %s: beam %.3e s worse than fig8 %.3e s"
              r.E.op_bench d.Device.name r.E.op_beam_s r.E.op_fig8_s;
          if r.E.op_bench = "TMatMul" && r.E.op_beam_s >= r.E.op_fig8_s then
            Alcotest.failf
              "TMatMul on %s: beam %.3e s not strictly better than fig8 %.3e s"
              d.Device.name r.E.op_beam_s r.E.op_fig8_s)
        rows)
    devices

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let tmatmul () =
  match Registry.find "TMatMul" with
  | Some b -> b
  | None -> Alcotest.fail "TMatMul missing from the registry"

let test_replay_reproduces_search_best () =
  let b = tmatmul () in
  let k = (Registry.compile_small b).Pipeline.cp_kernel in
  let shapes, scalars = Engine.shapes_of_args k [ b.B.input_small () ] in
  let d = Device.gtx580 in
  let o = Search.search ~width:4 ~depth:3 d k ~shapes ~scalars in
  Alcotest.(check bool) "search beats the canned sequences" true
    (o.Search.so_best.Search.sc_time_s
    <= (snd o.Search.so_fig8_best).Search.sc_time_s);
  match Search.replay d k o.Search.so_best.Search.sc_sequence ~shapes ~scalars with
  | Error m -> Alcotest.failf "winning schedule failed to replay: %s" m
  | Ok c ->
      Alcotest.(check (float 0.0)) "replay reproduces the searched time"
        o.Search.so_best.Search.sc_time_s c.Search.sc_time_s

let test_replay_rejects_stale_schedule () =
  let b = tmatmul () in
  let k = (Registry.compile_small b).Pipeline.cp_kernel in
  let shapes, scalars = Engine.shapes_of_args k [ b.B.input_small () ] in
  match Search.replay Device.gtx580 k [ "warp-shuffle" ] ~shapes ~scalars with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus stored schedule replayed"

(* ------------------------------------------------------------------ *)
(* The fig8 optimizer strategy is byte-identical to the plain sweep    *)
(* ------------------------------------------------------------------ *)

let test_reoptimize_matches_fresh_compile () =
  let c = Pipeline.compile ~worker:"Nest.work" nest_source in
  List.iter
    (fun (name, cfg) ->
      let rebuilt = Pipeline.reoptimize c cfg in
      let fresh = Pipeline.compile ~config:cfg ~worker:"Nest.work" nest_source in
      Alcotest.(check string)
        (name ^ " reoptimize = fresh compile")
        fresh.Pipeline.cp_opencl rebuilt.Pipeline.cp_opencl;
      Alcotest.(check (list string))
        (name ^ " schedule stays empty")
        [] rebuilt.Pipeline.cp_schedule)
    Memopt.fig8_configs

let test_reschedule_records_schedule () =
  let c = Pipeline.compile ~worker:"Nest.work" nest_source in
  let st = Rewrite.initial c.Pipeline.cp_kernel in
  match Rewrite.apply_sequence st [ "local"; "pad" ] with
  | Error m -> Alcotest.failf "local;pad rejected: %s" m
  | Ok st ->
      let r =
        Pipeline.reschedule c ~schedule:[ "local"; "pad" ]
          st.Rewrite.st_kernel st.Rewrite.st_config
      in
      Alcotest.(check (list string)) "schedule recorded" [ "local"; "pad" ]
        r.Pipeline.cp_schedule;
      Alcotest.(check bool) "config swapped in" true
        (r.Pipeline.cp_config = Memopt.config_local_noconflict)

(* ------------------------------------------------------------------ *)
(* Tunestore format 3                                                  *)
(* ------------------------------------------------------------------ *)

let record ?(sequence = None) () =
  {
    Tunestore.tr_config_name = "beam";
    tr_config = Memopt.config_local_noconflict;
    tr_time_s = 1.25e-4;
    tr_headline = None;
    tr_sequence = sequence;
    tr_placement = None;
  }

let test_tunestore_v3_sequence_roundtrip () =
  let dir = temp_dir "lime_ts_v3" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ts = Tunestore.open_ dir in
      let digest = Digest.of_request ~worker:"W" "src" in
      let seq = [ "local"; "pad"; "tile:4"; "interchange" ] in
      Tunestore.store ts ~digest ~device:"gtx580.beam"
        (record ~sequence:(Some seq) ());
      (match Tunestore.load ts ~digest ~device:"gtx580.beam" with
      | Some r ->
          Alcotest.(check bool) "sequence round-trips" true
            (r.Tunestore.tr_sequence = Some seq)
      | None -> Alcotest.fail "stored record did not load");
      (* the searched-but-baseline-won marker survives as Some [] *)
      Tunestore.store ts ~digest ~device:"hd5970.beam"
        (record ~sequence:(Some []) ());
      (match Tunestore.load ts ~digest ~device:"hd5970.beam" with
      | Some r ->
          Alcotest.(check bool) "empty schedule distinct from no schedule"
            true
            (r.Tunestore.tr_sequence = Some [])
      | None -> Alcotest.fail "baseline record did not load");
      (* a file in an older format is a miss, so the schedule is
         searched again *)
      Out_channel.with_open_text
        (Tunestore.path ts ~digest ~device:"gtx8800")
        (fun oc ->
          Printf.fprintf oc
            "lime-tunestore 2\nname Local\nconfig %s\ntime_s 2.5e-4\n"
            (Digest.canonical_config Memopt.config_local));
      Alcotest.(check bool) "format-2 file is a miss" true
        (Tunestore.load ts ~digest ~device:"gtx8800" = None))

(* ------------------------------------------------------------------ *)
(* Service: cold search, warm replay                                   *)
(* ------------------------------------------------------------------ *)

let test_beam_schedule_warm_replay () =
  let dir = temp_dir "lime_beam_svc" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = Service.create ~cache_dir:dir () in
      let b = tmatmul () in
      let k = (Registry.compile_small b).Pipeline.cp_kernel in
      let shapes, scalars = Engine.shapes_of_args k [ b.B.input_small () ] in
      let digest = Digest.of_request ~worker:b.B.worker b.B.source_small in
      let d = Device.gtx580 in
      let run () =
        Service.beam_schedule svc d ~device_key:"gtx580" ~digest ~width:4
          ~depth:3 k ~shapes ~scalars
      in
      let best_cold, prov_cold = run () in
      (match prov_cold with
      | `Searched _ -> ()
      | `Replayed -> Alcotest.fail "cold call claimed a stored schedule");
      let best_warm, prov_warm = run () in
      (match prov_warm with
      | `Replayed -> ()
      | `Searched _ -> Alcotest.fail "warm call re-searched");
      Alcotest.(check (float 0.0)) "warm replay reproduces the cold time"
        best_cold.Search.sc_time_s best_warm.Search.sc_time_s;
      Alcotest.(check bool) "same schedule" true
        (best_cold.Search.sc_sequence = best_warm.Search.sc_sequence);
      Service.shutdown svc)

let () =
  Alcotest.run "rewrite"
    [
      ( "catalog",
        [
          Alcotest.test_case "names round-trip" `Quick
            test_catalog_names_roundtrip;
          Alcotest.test_case "sequence strings" `Quick
            test_sequence_string_roundtrip;
          Alcotest.test_case "illegal applications rejected" `Quick
            test_illegal_applications_rejected;
        ] );
      ( "fig8",
        [
          Alcotest.test_case "sequences = configurations" `Quick
            test_fig8_sequences_match_configs;
          Alcotest.test_case "reoptimize = fresh compile" `Quick
            test_reoptimize_matches_fresh_compile;
          Alcotest.test_case "reschedule records the schedule" `Quick
            test_reschedule_records_schedule;
        ] );
      ( "search",
        [
          Alcotest.test_case "beam >= fig8 on every workload/device" `Slow
            test_beam_at_least_fig8_everywhere;
          Alcotest.test_case "replay reproduces the best" `Quick
            test_replay_reproduces_search_best;
          Alcotest.test_case "stale schedule rejected" `Quick
            test_replay_rejects_stale_schedule;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "tunestore v3 round trip" `Quick
            test_tunestore_v3_sequence_roundtrip;
          Alcotest.test_case "service warm replay" `Quick
            test_beam_schedule_warm_replay;
        ] );
    ]
