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
(* Golden search table: every registry kernel x device at paper scale
   (inputs from [Experiments.prepare ~seed:1], default width and depth).
   It pins the search's exact output, so any drift in dedup, in the
   placement filter or in a step's first-site walk shows up here as a
   changed evaluation count, sequence or time.                         *)
(* ------------------------------------------------------------------ *)

(* bench, device, so_evals, so_depth_reached, best sequence, %h of the
   best time, Fig 8 winner *)
let golden_search =
  [
    ("N-Body (Single)", "Intel Core i7-990X", 9, 1, "", "0x1.3bfcb426987c7p-5", "Global");
    ("N-Body (Single)", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.4567802071fd5p-8", "Constant");
    ("N-Body (Single)", "NVidia GeForce GTX 580", 9, 1, "", "0x1.b6244b7de003p-11", "Global");
    ("N-Body (Single)", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.2542d851b1735p-10", "Constant");
    ("N-Body (Double)", "Intel Core i7-990X", 9, 1, "", "0x1.25ed9001512c1p-4", "Global");
    ("N-Body (Double)", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.95bf6d09478f7p-5", "Constant");
    ("N-Body (Double)", "NVidia GeForce GTX 580", 9, 1, "", "0x1.b40b6c89c9455p-10", "Global");
    ("N-Body (Double)", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.b44e1dd5b3123p-10", "Constant");
    ("Mosaic", "Intel Core i7-990X", 116, 5, "", "0x1.afc7db90517fp-6", "Global");
    ("Mosaic", "NVidia GeForce GTX 8800", 150, 5, "local;pad", "0x1.2fb160b5a263bp-8", "Local+Conflicts removed");
    ("Mosaic", "NVidia GeForce GTX 580", 145, 5, "local;pad", "0x1.8ae2657d79db2p-11", "Local+Conflicts removed");
    ("Mosaic", "AMD Radeon HD 5970", 150, 5, "local;pad", "0x1.c549ecf4ed331p-10", "Local+Conflicts removed");
    ("Parboil-CP", "Intel Core i7-990X", 9, 1, "", "0x1.ba17d1e2a1347p+0", "Global");
    ("Parboil-CP", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.f144dec5bbe7dp-3", "Constant");
    ("Parboil-CP", "NVidia GeForce GTX 580", 9, 1, "", "0x1.3065e13d6a498p-5", "Global");
    ("Parboil-CP", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.84467949b287ep-5", "Constant");
    ("Parboil-MRIQ", "Intel Core i7-990X", 9, 1, "", "0x1.0771e7bcdf039p-2", "Global");
    ("Parboil-MRIQ", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.bbfa2b5fe50ffp-5", "Constant");
    ("Parboil-MRIQ", "NVidia GeForce GTX 580", 9, 1, "", "0x1.fd9ba1b1960fap-8", "Global");
    ("Parboil-MRIQ", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.07c2b54e627d6p-7", "Constant");
    ("Parboil-RPES", "Intel Core i7-990X", 116, 5, "unroll;unroll;unroll;unroll;unroll", "0x1.813ec7d03d5e9p-2", "Global");
    ("Parboil-RPES", "NVidia GeForce GTX 8800", 114, 5, "image;unroll;unroll;unroll;unroll;unroll", "0x1.61714bfc281cp-4", "Texture");
    ("Parboil-RPES", "NVidia GeForce GTX 580", 115, 5, "image;unroll;unroll;unroll;unroll;unroll", "0x1.8b4049b79d81cp-7", "Texture");
    ("Parboil-RPES", "AMD Radeon HD 5970", 114, 5, "image;unroll;unroll;unroll;unroll;unroll", "0x1.a69977d4c9df2p-7", "Texture");
    ("JG-Crypt", "Intel Core i7-990X", 34, 5, "unroll", "0x1.767ecf829d402p-6", "Global");
    ("JG-Crypt", "NVidia GeForce GTX 8800", 34, 5, "unroll", "0x1.1520361ea65b2p-8", "Global");
    ("JG-Crypt", "NVidia GeForce GTX 580", 34, 5, "unroll", "0x1.79fcb97ca66abp-11", "Global");
    ("JG-Crypt", "AMD Radeon HD 5970", 34, 5, "unroll", "0x1.82deb529d44d9p-10", "Global");
    ("JG-Series (Single)", "Intel Core i7-990X", 46, 5, "", "0x1.18d22c40c7bfp-5", "Global");
    ("JG-Series (Single)", "NVidia GeForce GTX 8800", 46, 5, "", "0x1.08f73585dbeep-7", "Global");
    ("JG-Series (Single)", "NVidia GeForce GTX 580", 46, 5, "", "0x1.30b5be2585302p-10", "Global");
    ("JG-Series (Single)", "AMD Radeon HD 5970", 46, 5, "", "0x1.3d4b3a8e7d9fp-10", "Global");
    ("JG-Series (Double)", "Intel Core i7-990X", 46, 5, "", "0x1.2a4370cd5586fp-4", "Global");
    ("JG-Series (Double)", "NVidia GeForce GTX 8800", 46, 5, "", "0x1.6f0270cd0af4fp-4", "Global");
    ("JG-Series (Double)", "NVidia GeForce GTX 580", 46, 5, "", "0x1.4263e100c2369p-9", "Global");
    ("JG-Series (Double)", "AMD Radeon HD 5970", 46, 5, "", "0x1.ea0347254395fp-10", "Global");
    ("TMatMul", "Intel Core i7-990X", 152, 5, "interchange", "0x1.6683bb5c19f6ap-10", "Global");
    ("TMatMul", "NVidia GeForce GTX 8800", 154, 5, "local;interchange", "0x1.6119277fd877p-12", "Local");
    ("TMatMul", "NVidia GeForce GTX 580", 149, 5, "interchange", "0x1.1cb3b4151dd3ep-15", "Local");
    ("TMatMul", "AMD Radeon HD 5970", 154, 5, "local;interchange", "0x1.22dce8f7af9e1p-13", "Local");
    ("N-Body Pipe", "Intel Core i7-990X", 9, 1, "", "0x1.3bfcb426987c7p-5", "Global");
    ("N-Body Pipe", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.4567802071fd5p-8", "Constant");
    ("N-Body Pipe", "NVidia GeForce GTX 580", 9, 1, "", "0x1.b6244b7de003p-11", "Global");
    ("N-Body Pipe", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.2542d851b1735p-10", "Constant");
  ]

let test_golden_search_table () =
  let row = ref golden_search in
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare ~seed:1 b in
      let k = p.E.p_compiled.Pipeline.cp_kernel in
      let shapes, scalars = Engine.shapes_of_args k [ p.E.p_input ] in
      List.iter
        (fun (d : Device.t) ->
          let o = Search.search d k ~shapes ~scalars in
          let got =
            ( b.B.name,
              d.Device.name,
              o.Search.so_evals,
              o.Search.so_depth_reached,
              Rewrite.sequence_to_string o.Search.so_best.Search.sc_sequence,
              Printf.sprintf "%h" o.Search.so_best.Search.sc_time_s,
              fst o.Search.so_fig8_best )
          in
          match !row with
          | want :: rest ->
              row := rest;
              let name, dev, evals, depth, seq, time, fig8 = want in
              let what = Printf.sprintf "%s on %s" name dev in
              let name', dev', evals', depth', seq', time', fig8' = got in
              Alcotest.(check (pair string string)) "row" (name, dev)
                (name', dev');
              Alcotest.(check int) (what ^ ": evaluations") evals evals';
              Alcotest.(check int) (what ^ ": depth") depth depth';
              Alcotest.(check string) (what ^ ": best sequence") seq seq';
              Alcotest.(check string) (what ^ ": best time") time time';
              Alcotest.(check string) (what ^ ": fig8 winner") fig8 fig8'
          | [] -> Alcotest.failf "no golden row for %s" b.B.name)
        Device.all)
    Registry.workloads;
  Alcotest.(check int) "every golden row checked" 0 (List.length !row)

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
          Alcotest.test_case "golden table, registry x devices" `Slow
            test_golden_search_table;
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
