(** Tests for the span tracer: nesting/ordering invariants, Chrome
    trace-event export well-formedness, and the end-to-end instrumentation
    of the pipeline and the task-graph engine. *)

module Trace = Lime_service.Trace
module Service = Lime_service.Service
module Pipeline = Lime_gpu.Pipeline
module Engine = Lime_runtime.Engine
module Metrics = Lime_service.Metrics
module Json = Lime_support.Json

let contains = Lime_support.Util.contains_substring

(* ------------------------------------------------------------------ *)
(* A tiny deterministic clock                                          *)
(* ------------------------------------------------------------------ *)

let ticking ?(step = 1e-3) () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. step;
    !t

(* ------------------------------------------------------------------ *)
(* Span recording invariants                                           *)
(* ------------------------------------------------------------------ *)

let test_nesting () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.begin_span tr ~cat:"a" "outer";
  Trace.begin_span tr ~cat:"b" "inner";
  Trace.end_span tr "inner";
  Trace.end_span tr "outer";
  Alcotest.(check int) "balanced" 0 (Trace.open_depth tr);
  match Trace.spans tr with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer name" "outer" outer.Trace.sp_name;
      Alcotest.(check int) "outer is a root" (-1) outer.Trace.sp_parent;
      Alcotest.(check int) "inner nests under outer" outer.Trace.sp_id
        inner.Trace.sp_parent;
      Alcotest.(check bool) "inner begins after outer" true
        (inner.Trace.sp_begin_us > outer.Trace.sp_begin_us);
      Alcotest.(check bool) "inner ends before outer" true
        (inner.Trace.sp_end_us < outer.Trace.sp_end_us);
      Alcotest.(check bool) "spans have positive duration" true
        (outer.Trace.sp_end_us > outer.Trace.sp_begin_us)
  | spans ->
      Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_end_closes_abandoned_children () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.begin_span tr "outer";
  Trace.begin_span tr "child";
  (* ending the outer span must close the still-open child too *)
  Trace.end_span tr "outer";
  Alcotest.(check int) "balanced" 0 (Trace.open_depth tr);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Trace.sp_name ^ " closed") true
        (s.Trace.sp_end_us >= 0.0))
    (Trace.spans tr)

let test_end_unknown_name_ignored () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.begin_span tr "only";
  Trace.end_span tr "never-opened";
  Alcotest.(check int) "still open" 1 (Trace.open_depth tr);
  Trace.end_span tr "only";
  Alcotest.(check int) "balanced" 0 (Trace.open_depth tr)

let test_disabled_records_nothing () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.set_enabled tr false;
  Trace.with_span tr "invisible" (fun () -> ());
  Trace.complete tr ~dur_us:5.0 "also-invisible";
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans tr))

let test_with_span_exception_safe () =
  let tr = Trace.create ~clock:(ticking ()) () in
  (try Trace.with_span tr "boom" (fun () -> failwith "x") with _ -> ());
  Alcotest.(check int) "balanced after raise" 0 (Trace.open_depth tr);
  match Trace.spans tr with
  | [ s ] -> Alcotest.(check bool) "closed" true (s.Trace.sp_end_us >= 0.0)
  | _ -> Alcotest.fail "expected one span"

let test_monotonic_now () =
  (* a clock that stands still: only advance_to moves trace time *)
  let tr = Trace.create ~clock:(fun () -> 1.0) () in
  let a = Trace.now_us tr in
  let b = Trace.now_us tr in
  Alcotest.(check bool) "non-decreasing" true (a <= b);
  Trace.advance_to tr 50.0;
  let c = Trace.now_us tr in
  Alcotest.(check bool) "never below an advance_to mark" true (c >= 50.0);
  Trace.advance_to tr 10.0;
  Alcotest.(check bool) "an earlier mark never moves it back" true
    (Trace.now_us tr >= c);
  (* the default clock: non-decreasing on every domain *)
  let tr = Trace.create () in
  let reads () =
    let last = ref (Trace.now_us tr) and ok = ref true in
    for _ = 1 to 10_000 do
      let v = Trace.now_us tr in
      if v < !last then ok := false;
      last := v
    done;
    !ok
  in
  let d = Domain.spawn reads in
  let here = reads () in
  Alcotest.(check bool) "non-decreasing on both domains" true
    (here && Domain.join d)

(* ------------------------------------------------------------------ *)
(* Chrome JSON export                                                  *)
(* ------------------------------------------------------------------ *)

(* the export is one JSON object whose traceEvents is a list *)
let trace_events json =
  match Json.member "traceEvents" (Testutil.json_exn ~what:"trace" json) with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "no traceEvents list in the export"

let test_chrome_export_shape () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.with_span tr ~cat:"c" ~args:[ ("k", "v\"quoted\\") ] "root"
    (fun () -> Trace.complete tr ~cat:"m" ~dur_us:3.0 "leaf");
  let json = Trace.to_chrome_json tr in
  let evs = trace_events json in
  Alcotest.(check bool) "complete events" true (contains ~sub:"\"ph\":\"X\"" json);
  Alcotest.(check bool) "args escaped" true
    (contains ~sub:"\\\"quoted\\\\" json);
  Alcotest.(check (list string)) "args read back unchanged" [ "v\"quoted\\" ]
    (List.filter_map
       (fun ev ->
         match Option.bind (Json.member "args" ev) (Json.member "k") with
         | Some (Json.Str v) -> Some v
         | _ -> None)
       evs);
  Alcotest.(check bool) "names exported" true
    (contains ~sub:"\"root\"" json && contains ~sub:"\"leaf\"" json)

let test_chrome_export_monotonic_ts () =
  let tr = Trace.create ~clock:(ticking ()) () in
  for i = 0 to 4 do
    Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let json = Trace.to_chrome_json tr in
  let ts =
    List.filter_map
      (fun ev ->
        match Json.member "ts" ev with Some (Json.Num t) -> Some t | _ -> None)
      (trace_events json)
  in
  Alcotest.(check bool) "at least 5 events" true (List.length ts >= 5);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps sorted" true (sorted ts)

let test_open_spans_closed_on_export () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.begin_span tr "dangling";
  let json = Trace.to_chrome_json tr in
  ignore (trace_events json);
  Alcotest.(check bool) "open span exported" true
    (contains ~sub:"\"dangling\"" json);
  Alcotest.(check bool) "no negative durations" false
    (contains ~sub:"\"dur\":-" json)

(* ------------------------------------------------------------------ *)
(* End-to-end instrumentation                                          *)
(* ------------------------------------------------------------------ *)

let nbody = Lime_benchmarks.Nbody.single

let traced_run () =
  let tr = Trace.create () in
  Trace.with_observers ~tracer:tr (fun () ->
      let c =
        Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
          nbody.Lime_benchmarks.Bench_def.source
      in
      ignore
        (Engine.run_program Engine.default_config c.Pipeline.cp_module
           ~cls:"NBodySim" ~meth:"main"
           [ Lime_ir.Value.VInt 32; Lime_ir.Value.VInt 1 ]));
  tr

let test_pipeline_phases_traced () =
  let tr = traced_run () in
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans tr) in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        ("pipeline." ^ phase ^ " present")
        true
        (List.mem ("pipeline." ^ phase) names))
    [
      "compile"; "lex"; "parse"; "typecheck"; "lower"; "extract"; "simplify";
      "memopt"; "codegen"; "clcheck";
    ];
  (* phases nest under pipeline.compile *)
  let spans = Trace.spans tr in
  let compile =
    List.find (fun s -> s.Trace.sp_name = "pipeline.compile") spans
  in
  let parse = List.find (fun s -> s.Trace.sp_name = "pipeline.parse") spans in
  Alcotest.(check int) "parse under compile" compile.Trace.sp_id
    parse.Trace.sp_parent

let test_firing_has_all_comm_legs () =
  let tr = traced_run () in
  let spans = Trace.spans tr in
  let device_firing =
    List.find
      (fun s ->
        s.Trace.sp_name = "firing.NBody.computeForces"
        && List.assoc_opt "device" s.Trace.sp_args = Some "true")
      spans
  in
  let legs =
    List.filter
      (fun s -> s.Trace.sp_parent = device_firing.Trace.sp_id)
      spans
    |> List.map (fun s -> s.Trace.sp_name)
  in
  List.iter
    (fun leg ->
      Alcotest.(check bool) ("comm." ^ leg) true (List.mem ("comm." ^ leg) legs))
    [ "java_marshal"; "jni"; "c_marshal"; "setup"; "pcie"; "kernel"; "host" ];
  (* the device kernel leg carries the launch attributes *)
  let kernel =
    List.find
      (fun s ->
        s.Trace.sp_name = "comm.kernel"
        && s.Trace.sp_parent = device_firing.Trace.sp_id)
      spans
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " attr present") true
        (List.mem_assoc k kernel.Trace.sp_args))
    [ "device"; "work_items"; "occupancy"; "bank_conflict_degree" ];
  (* legs lie inside the firing on the model timeline *)
  List.iter
    (fun s ->
      if s.Trace.sp_parent = device_firing.Trace.sp_id then begin
        Alcotest.(check bool) "leg starts within firing" true
          (s.Trace.sp_begin_us >= device_firing.Trace.sp_begin_us);
        Alcotest.(check bool) "leg ends within firing" true
          (s.Trace.sp_end_us <= device_firing.Trace.sp_end_us +. 1e-6)
      end)
    spans

(* Phases are timed on the wall clock: a phase observer that waits 20 ms
   at the end of "simplify" makes that phase, and the whole compile, last
   at least that long.  It is registered after the tracer's, and
   Hooks.emit calls the newest first, so the wait lands before the
   tracer closes the span.  Process CPU time would read close to zero
   here. *)
let test_phases_read_wall_time () =
  let tr = Trace.create () in
  let seconds = ref 0.0 in
  Lime_support.Hooks.add Pipeline.compile_hooks ~key:"wall-time-test"
    (fun (_, s) -> seconds := s);
  Fun.protect
    ~finally:(fun () ->
      Lime_support.Hooks.remove Pipeline.compile_hooks "wall-time-test";
      Lime_support.Hooks.remove Pipeline.phase_hooks "wall-time-test")
    (fun () ->
      Trace.with_observers ~tracer:tr (fun () ->
          Lime_support.Hooks.add Pipeline.phase_hooks ~key:"wall-time-test"
            (function
              | "simplify", `End -> Unix.sleepf 0.02
              | _ -> ());
          ignore
            (Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
               nbody.Lime_benchmarks.Bench_def.source)));
  let simplify =
    List.find (fun s -> s.Trace.sp_name = "pipeline.simplify") (Trace.spans tr)
  in
  Alcotest.(check bool) "pipeline.simplify lasts >= 20 ms" true
    (simplify.Trace.sp_end_us -. simplify.Trace.sp_begin_us >= 20_000.0);
  Alcotest.(check bool) "compile hook reports >= 0.02 s" true
    (!seconds >= 0.02)

(* Each domain's leaf phases run one after another inside the time that
   domain spent compiling, so they cannot sum to more than it.  A clock
   shared by both domains' work, like process CPU time, breaks this. *)
let test_leaf_phases_within_elapsed () =
  let tr = Trace.create () in
  let compiles () =
    let t0 = Lime_support.Clock.now_s () in
    let (), spans =
      Trace.collect tr (fun () ->
          for _ = 1 to 3 do
            ignore
              (Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
                 nbody.Lime_benchmarks.Bench_def.source)
          done)
    in
    (spans, (Lime_support.Clock.now_s () -. t0) *. 1e6)
  in
  let per_domain =
    Trace.with_observers ~tracer:tr (fun () ->
        let d = Domain.spawn compiles in
        let here = compiles () in
        [ here; Domain.join d ])
  in
  List.iteri
    (fun i (spans, elapsed_us) ->
      let leaves =
        List.filter
          (fun sp ->
            String.starts_with ~prefix:"pipeline." sp.Trace.sp_name
            && not
                 (List.exists
                    (fun c -> c.Trace.sp_parent = sp.Trace.sp_id)
                    spans))
          spans
      in
      let sum =
        List.fold_left
          (fun acc sp -> acc +. (sp.Trace.sp_end_us -. sp.Trace.sp_begin_us))
          0.0 leaves
      in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d recorded leaf phases" i)
        true (leaves <> []);
      if sum > elapsed_us then
        Alcotest.failf "domain %d: leaf phases sum to %.0f us > %.0f us elapsed"
          i sum elapsed_us)
    per_domain

let test_observers_uninstalled_after () =
  let tr = traced_run () in
  let before = List.length (Trace.spans tr) in
  ignore
    (Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
       nbody.Lime_benchmarks.Bench_def.source);
  Alcotest.(check int) "no spans recorded after with_observers" before
    (List.length (Trace.spans tr))

let test_metrics_and_trace_compose () =
  (* both observers keyed => enabling tracing must not disable metrics *)
  let reg = Metrics.create () in
  Service.instrument ~registry:reg ();
  let tr = Trace.create () in
  Fun.protect
    ~finally:(fun () -> Service.uninstrument ())
    (fun () ->
      Trace.with_observers ~tracer:tr (fun () ->
          ignore
            (Pipeline.compile ~worker:nbody.Lime_benchmarks.Bench_def.worker
               nbody.Lime_benchmarks.Bench_def.source));
      Alcotest.(check int) "metrics still counted" 1
        (Metrics.counter_value (Metrics.counter reg "lime_compile_total"));
      Alcotest.(check bool) "trace recorded" true
        (List.exists
           (fun s -> s.Trace.sp_name = "pipeline.compile")
           (Trace.spans tr)))

let test_summary_and_flame () =
  let tr = traced_run () in
  let summary = Trace.summary tr in
  Alcotest.(check bool) "summary mentions pipeline.compile" true
    (contains ~sub:"pipeline.compile" summary);
  let flame = Trace.flame tr in
  Alcotest.(check bool) "flame indents phases under compile" true
    (contains ~sub:"\n  pipeline.lex" flame
    || contains ~sub:"\n    pipeline.lex" flame);
  Alcotest.(check bool) "flame shows a firing" true
    (contains ~sub:"firing.NBody.computeForces" flame)

(* ------------------------------------------------------------------ *)
(* Search observability: the rewrite and placement searches' spans and *)
(* metrics, pinned value for value                                      *)
(* ------------------------------------------------------------------ *)

(* the N-Body Pipe at n = 16, probed without executing it *)
let probe_pipe () =
  let pipe = Lime_benchmarks.Nbody_pipe.bench in
  let c =
    Pipeline.compile ~worker:pipe.Lime_benchmarks.Bench_def.worker
      (Lime_benchmarks.Nbody_pipe.source_for 16)
  in
  let stages = ref [] in
  let st = Lime_ir.Interp.create c.Pipeline.cp_module in
  st.Lime_ir.Interp.finish_hook <-
    (fun st' graph _iters ->
      stages := Lime_sched.Probe.probe st'.Lime_ir.Interp.md graph);
  ignore
    (Lime_ir.Interp.run st ~cls:"NBodyPSim" ~meth:"main"
       [ Lime_ir.Value.VInt 1 ]);
  !stages

let test_search_observability () =
  let module Search = Lime_rewrite.Search in
  let module PS = Lime_sched.Search in
  let b =
    match Lime_benchmarks.Registry.find "TMatMul" with
    | Some b -> b
    | None -> Alcotest.fail "TMatMul missing from the registry"
  in
  let k = (Lime_benchmarks.Registry.compile_small b).Pipeline.cp_kernel in
  let shapes, scalars =
    Engine.shapes_of_args k [ b.Lime_benchmarks.Bench_def.input_small () ]
  in
  let d = Gpusim.Device.gtx580 in
  let stages = probe_pipe () in
  let reg = Metrics.create () in
  let tr = Trace.create ~clock:(ticking ()) () in
  Service.instrument ~registry:reg ();
  Fun.protect
    ~finally:(fun () -> Service.uninstrument ())
    (fun () ->
      Trace.with_observers ~tracer:tr (fun () ->
          let o = Search.search ~width:4 ~depth:3 d k ~shapes ~scalars in
          Alcotest.(check int) "rewrite evals" 53 o.Search.so_evals;
          ignore
            (Search.replay d k o.Search.so_best.Search.sc_sequence ~shapes
               ~scalars);
          ignore (Search.replay d k [ "warp-shuffle" ] ~shapes ~scalars);
          let po = PS.search ~firings:16 stages in
          ignore (PS.replay ~firings:16 stages po.PS.po_best.PS.pc_placement)));
  let spans =
    List.filter
      (fun s -> s.Trace.sp_cat = "rewrite" || s.Trace.sp_cat = "sched")
      (Trace.spans tr)
  in
  let parent s =
    match List.find_opt (fun p -> p.Trace.sp_id = s.Trace.sp_parent) spans with
    | Some p -> p.Trace.sp_name
    | None -> "-"
  in
  let render s =
    Printf.sprintf "%s [%s] <%s> %s" s.Trace.sp_name s.Trace.sp_cat (parent s)
      (String.concat " "
         (List.map (fun (k, v) -> k ^ "=" ^ v) s.Trace.sp_args))
  in
  let host_pipe =
    "NBodyPSim.particleGen=host,NBodyP.computeForces=host,\
     NBodyP.smooth=host,NBodyPSim.accumulate=host"
  in
  Alcotest.(check (list string))
    "search spans"
    [
      "rewrite.search [rewrite] <-> kernel=TMatMul.multiply device=NVidia \
       GeForce GTX 580 width=4 depth=3 evals=53 best_time_s=3.394e-05 \
       sequence=interchange improved=true attempts=54 attempt_hits=54 \
       analyses=25 memo_bodies=0";
      "rewrite.level [rewrite] <rewrite.search> level=1 frontier=4 evals=20 \
       best_time_s=3.394e-05 sequence=interchange";
      "rewrite.level [rewrite] <rewrite.search> level=2 frontier=4 evals=34 \
       best_time_s=3.394e-05 sequence=interchange";
      "rewrite.level [rewrite] <rewrite.search> level=3 frontier=4 evals=53 \
       best_time_s=3.394e-05 sequence=interchange";
      "rewrite.replay [rewrite] <-> kernel=TMatMul.multiply \
       sequence=interchange ok=true";
      "rewrite.replay [rewrite] <-> kernel=TMatMul.multiply \
       sequence=warp-shuffle ok=false";
      "sched.search [sched] <-> stages=4 placeable=2 firings=16 \
       exhaustive=true evals=30 best_time_s=1.341e-04 placement=" ^ host_pipe
      ^ " improved=false";
      "sched.replay [sched] <-> placement=" ^ host_pipe ^ " ok=true";
    ]
    (List.map render spans);
  let samples =
    String.split_on_char '\n' (Metrics.expose reg)
    |> List.filter (fun l ->
           List.exists
             (fun p -> String.starts_with ~prefix:p l)
             [
               "lime_rewrite_"; "lime_sched_"; "# TYPE lime_rewrite_";
               "# TYPE lime_sched_";
             ])
  in
  Alcotest.(check (list string))
    "search metrics"
    [
      "# TYPE lime_rewrite_best_time_s gauge";
      "lime_rewrite_best_time_s 3.39391e-05";
      "# TYPE lime_rewrite_evals_total counter";
      "lime_rewrite_evals_total 53";
      "# TYPE lime_rewrite_improved_total counter";
      "lime_rewrite_improved_total 1";
      "# TYPE lime_rewrite_replays_total counter";
      "lime_rewrite_replays_total 1";
      "# TYPE lime_rewrite_searches_total counter";
      "lime_rewrite_searches_total 1";
      "# TYPE lime_sched_best_time_s gauge";
      "lime_sched_best_time_s 0.000134147";
      "# TYPE lime_sched_evals_total counter";
      "lime_sched_evals_total 30";
      "# TYPE lime_sched_improved_total counter";
      "lime_sched_improved_total 0";
      "# TYPE lime_sched_replays_total counter";
      "lime_sched_replays_total 1";
      "# TYPE lime_sched_searches_total counter";
      "lime_sched_searches_total 1";
    ]
    samples

(* ------------------------------------------------------------------ *)
(* Cross-process hand-off: retention, collect, graft, span codec       *)
(* ------------------------------------------------------------------ *)

let test_retention_ring () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.set_retention tr 64;
  Alcotest.(check int) "retention readable" 64 (Trace.retention tr);
  (* an open span predating the flood must survive every eviction — the
     stack still references it *)
  Trace.begin_span tr "long-lived";
  for i = 1 to 200 do
    Trace.complete tr ~dur_us:1.0 (Printf.sprintf "s%d" i)
  done;
  let spans = Trace.spans tr in
  Alcotest.(check bool) "buffer bounded" true (List.length spans <= 65);
  Alcotest.(check bool) "drops counted" true (Trace.dropped_spans tr > 0);
  Alcotest.(check int) "kept + dropped = recorded" 201
    (List.length spans + Trace.dropped_spans tr);
  Alcotest.(check bool) "open span survives eviction" true
    (List.exists (fun s -> s.Trace.sp_name = "long-lived") spans);
  (* the ring drops the oldest closed spans: the newest completion is
     always retained *)
  Alcotest.(check bool) "newest span retained" true
    (List.exists (fun s -> s.Trace.sp_name = "s200") spans);
  Alcotest.(check bool) "oldest closed span evicted" false
    (List.exists (fun s -> s.Trace.sp_name = "s1") spans)

let test_retention_zero_unbounded () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.set_retention tr 0;
  for i = 1 to 300 do
    Trace.complete tr ~dur_us:1.0 (Printf.sprintf "s%d" i)
  done;
  Alcotest.(check int) "nothing evicted" 300 (List.length (Trace.spans tr));
  Alcotest.(check int) "nothing counted dropped" 0 (Trace.dropped_spans tr)

let test_collect_watermark () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.complete tr ~dur_us:1.0 "before";
  let r, got =
    Trace.collect tr (fun () ->
        Trace.with_span tr "during" (fun () ->
            Trace.complete tr ~dur_us:1.0 "child");
        42)
  in
  Alcotest.(check int) "result threaded through" 42 r;
  Alcotest.(check (list string)) "only spans begun inside f, begin order"
    [ "during"; "child" ]
    (List.map (fun s -> s.Trace.sp_name) got);
  (* and the collected spans are still in the tracer's own buffer *)
  Alcotest.(check int) "buffer keeps everything" 3
    (List.length (Trace.spans tr))

let mk_span ?(cat = "r") ?(args = []) id parent b e name =
  {
    Trace.sp_id = id;
    sp_parent = parent;
    sp_name = name;
    sp_cat = cat;
    sp_args = args;
    sp_begin_us = b;
    sp_end_us = e;
  }

let test_graft_remints_and_reparents () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.begin_span tr "local.parent";
  let parent = Trace.current_span_id tr in
  let remote =
    [
      mk_span 5 (-1) 0.0 10.0 "remote.root";
      mk_span 6 5 2.0 8.0 "remote.child";
      mk_span 7 99 3.0 4.0 "remote.dangling";
      (* hostile timestamps: negative begin, end before begin *)
      mk_span 8 (-1) (-5.0) (-6.0) "remote.clamped";
    ]
  in
  let n = Trace.graft tr ~at_us:100.0 ~parent remote in
  Alcotest.(check int) "all spans grafted" 4 n;
  let spans = Trace.spans tr in
  let find name = List.find (fun s -> s.Trace.sp_name = name) spans in
  let root = find "remote.root" in
  let child = find "remote.child" in
  let dangling = find "remote.dangling" in
  let clamped = find "remote.clamped" in
  Alcotest.(check int) "foreign root hangs off the local parent" parent
    root.Trace.sp_parent;
  Alcotest.(check int) "child rewired through the id map" root.Trace.sp_id
    child.Trace.sp_parent;
  Alcotest.(check int) "dangling parent attaches to the local parent"
    parent dangling.Trace.sp_parent;
  (* remote ids are re-minted into the local id space *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Trace.sp_name ^ " id re-minted") false
        (List.mem s.Trace.sp_id [ 5; 6; 7; 8 ]))
    [ root; child; dangling; clamped ];
  Alcotest.(check (float 1e-9)) "timestamps offset by at_us" 102.0
    child.Trace.sp_begin_us;
  Alcotest.(check (float 1e-9)) "negative begin clamps to the base" 100.0
    clamped.Trace.sp_begin_us;
  Alcotest.(check bool) "end never precedes begin" true
    (clamped.Trace.sp_end_us >= clamped.Trace.sp_begin_us);
  (* the clock advanced past the last grafted end: new spans come after *)
  Alcotest.(check bool) "clock advanced past the graft" true
    (Trace.now_us tr > 110.0)

(* Grafting an empty span list (an untraced daemon reply, whose ar_spans
   is []) must be a true no-op: nothing inserted, the buffer untouched,
   and the local clock still usable. *)
let test_graft_empty_buffer () =
  let tr = Trace.create ~clock:(ticking ()) () in
  Trace.begin_span tr "local.parent";
  let parent = Trace.current_span_id tr in
  let before = List.length (Trace.spans tr) in
  let n = Trace.graft tr ~at_us:100.0 ~parent [] in
  Alcotest.(check int) "zero spans grafted" 0 n;
  Alcotest.(check int) "buffer untouched" before (List.length (Trace.spans tr));
  (* the tracer keeps working normally afterwards *)
  Trace.complete tr ~dur_us:1.0 "after";
  let spans = Trace.spans tr in
  Alcotest.(check bool) "later spans still record" true
    (List.exists (fun s -> s.Trace.sp_name = "after") spans);
  Alcotest.(check bool) "no foreign spans appeared" true
    (List.for_all
       (fun s -> s.Trace.sp_name = "local.parent" || s.Trace.sp_name = "after")
       spans)

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "end closes abandoned children" `Quick
            test_end_closes_abandoned_children;
          Alcotest.test_case "end of unknown name ignored" `Quick
            test_end_unknown_name_ignored;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "with_span exception-safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "now_us non-decreasing" `Quick
            test_monotonic_now;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export shape" `Quick test_chrome_export_shape;
          Alcotest.test_case "timestamps sorted" `Quick
            test_chrome_export_monotonic_ts;
          Alcotest.test_case "open spans closed on export" `Quick
            test_open_spans_closed_on_export;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "pipeline phases traced" `Quick
            test_pipeline_phases_traced;
          Alcotest.test_case "firing has all comm legs" `Quick
            test_firing_has_all_comm_legs;
          Alcotest.test_case "phases read wall time" `Quick
            test_phases_read_wall_time;
          Alcotest.test_case "leaf phases within elapsed" `Quick
            test_leaf_phases_within_elapsed;
          Alcotest.test_case "observers uninstalled after" `Quick
            test_observers_uninstalled_after;
          Alcotest.test_case "metrics and trace compose" `Quick
            test_metrics_and_trace_compose;
          Alcotest.test_case "summary and flame" `Quick test_summary_and_flame;
          Alcotest.test_case "search spans and metrics" `Quick
            test_search_observability;
        ] );
      ( "hand-off",
        [
          Alcotest.test_case "retention ring bounds the buffer" `Quick
            test_retention_ring;
          Alcotest.test_case "retention 0 means unbounded" `Quick
            test_retention_zero_unbounded;
          Alcotest.test_case "collect watermark" `Quick test_collect_watermark;
          Alcotest.test_case "graft re-mints and re-parents" `Quick
            test_graft_remints_and_reparents;
          Alcotest.test_case "graft of an empty span buffer" `Quick
            test_graft_empty_buffer;
        ] );
    ]
