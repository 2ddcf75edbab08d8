(* tune: one op is one [Service.beam_schedule] against a fresh cache
   directory — every registry kernel on every device searched cold (the
   search writes the tunestore) and then replayed warm once (the replay
   reads it) — or one [Lime_sched.Search.search] placement search per
   probed pipeline.  Kernels, shapes and the pipeline probes are made in
   set-up. *)

open Bench
module B = Lime_benchmarks.Bench_def
module Registry = Lime_benchmarks.Registry
module Service = Lime_service.Service
module RSearch = Lime_rewrite.Search
module SSearch = Lime_sched.Search
module Memopt = Lime_gpu.Memopt

type kern = {
  k_name : string;
  k_kernel : Lime_gpu.Kernel.kernel;
  k_shapes : (string * int array) list;
  k_scalars : (string * float) list;
  k_digest : Lime_service.Digest.t;
}

type pipe = { p_name : string; p_stages : Lime_sched.Probe.stage list }

type plan = {
  kerns : kern list;
  pipes : pipe list;
  cold_ns : Fvec.t;  (** traced cold searches *)
  evals : Fvec.t;  (** their cost-model evaluations *)
}

let firings = 16

(* Capture a pipeline at its [finish] and probe it, without firing it. *)
let probe_main (b : B.t) =
  let c = Registry.compile_small b in
  match Run_wl.static_main c.cp_module with
  | None -> None
  | Some (cls, params) ->
      let args = Run_wl.main_args b ~params in
      let stages = ref [] in
      let st = Lime_ir.Interp.create c.cp_module in
      st.finish_hook <-
        (fun st' graph _ -> stages := Lime_sched.Probe.probe st'.md graph);
      ignore (Lime_ir.Interp.run st ~cls ~meth:"main" args);
      Some { p_name = b.name; p_stages = !stages }

(* 72 ops a pass *)
let tail_q = 0.9

(* Kernels whose cold search takes longer than Mosaic's (≈45 ms, 145
   evaluations) are left out — RPES (≈160 ms), JG-Crypt and TMatMul
   (≈80 ms) — so that a pass stays short and every op is repeated often
   enough for its fastest repetitions to be steady. *)
let heavy_kernels = [ "Parboil-RPES"; "JG-Crypt"; "TMatMul" ]

let setup (o : opts) =
  let kerns =
    List.map
      (fun (b : B.t) ->
        let p = Lime_benchmarks.Experiments.prepare ~seed:o.seed b in
        let k = p.p_compiled.cp_kernel in
        let shapes, scalars = Lime_runtime.Engine.shapes_of_args k [ p.p_input ] in
        {
          k_name = b.name;
          k_kernel = k;
          k_shapes = shapes;
          k_scalars = scalars;
          k_digest = Service.request_digest ~worker:b.worker b.source;
        })
      (List.filter (fun (b : B.t) -> not (List.mem b.name heavy_kernels)) Registry.workloads)
  in
  let pipes =
    List.filter_map probe_main
      (List.filter
         (fun (b : B.t) -> not (List.mem b.name Run_wl.heavy_mains))
         Registry.workloads)
  in
  { kerns; pipes; cold_ns = Fvec.create (); evals = Fvec.create () }

let device_key (d : Gpusim.Device.t) = d.name

(* The cost-model layers one search evaluation goes through, called
   directly on the kernel: memory placement, launch profile, device
   model; and the Fig 8 sweep the search is seeded against. *)
let probe_layers k d =
  ignore
    (span "tune.autotune.sweep" (fun () ->
         Gpusim.Autotune.sweep d k.k_kernel ~shapes:k.k_shapes ~scalars:k.k_scalars));
  let ds =
    span "tune.memopt.optimize" (fun () ->
        Memopt.optimize ~affine_lanes:true Memopt.config_all k.k_kernel)
  in
  let prof =
    span "tune.profile.profile" (fun () ->
        Gpusim.Profile.profile ~hoist_invariant:true ~affine_lanes:true k.k_kernel ds
          ~shapes:k.k_shapes ~scalars:k.k_scalars)
  in
  let bindings =
    Gpusim.Autotune.bindings_of k.k_kernel ds ~shapes:k.k_shapes ~out_shape:None
  in
  ignore
    (span "tune.model.kernel_time" (fun () -> Gpusim.Model.kernel_time_ex d prof bindings))

let pass (o : opts) plan t =
  let dir = fresh_dir o "tune" in
  let svc = Service.create ~cache_dir:dir () in
  let evals = ref 0 and hits = ref 0 and sched_evals = ref 0 in
  let beam k d =
    Service.beam_schedule svc d ~device_key:(device_key d) ~digest:k.k_digest k.k_kernel
      ~shapes:k.k_shapes ~scalars:k.k_scalars
  in
  Fun.protect
    ~finally:(fun () ->
      Service.shutdown svc;
      rm_rf dir)
    (fun () ->
      List.iter
        (fun k ->
          List.iter
            (fun (d : Gpusim.Device.t) ->
              let what = Printf.sprintf "%s on %s" k.k_name d.name in
              try
                let (cold, how), ns = timed (fun () -> span "tune.search.cold" (fun () -> beam k d)) in
                t.busy_ns <- t.busy_ns +. ns;
                (match how with
                | `Searched so ->
                    evals := !evals + so.RSearch.so_evals;
                    if !tracing then begin
                      Fvec.add plan.cold_ns ns;
                      Fvec.add plan.evals (float so.so_evals)
                    end;
                    op_done t ~ns ~what:("cold search " ^ what)
                      ~ok:(cold.sc_time_s <= (snd so.so_fig8_best).sc_time_s)
                | `Replayed -> op_done t ~ns ~ok:false ~what:("cold search replayed " ^ what));
                let (warm, how), ns =
                  timed (fun () -> span "tune.search.replay" (fun () -> beam k d))
                in
                t.busy_ns <- t.busy_ns +. ns;
                if how = `Replayed then incr hits;
                op_done t ~ns ~what:("warm replay " ^ what)
                  ~ok:
                    (how = `Replayed
                    && warm.sc_sequence = cold.sc_sequence
                    && warm.sc_time_s = cold.sc_time_s);
                if !tracing then probe_layers k d
              with e -> op_failed t ~what e)
            Gpusim.Device.all)
        plan.kerns;
      List.iter
        (fun p ->
          try
            let so, ns =
              timed (fun () ->
                  span "tune.sched.search" (fun () -> SSearch.search ~firings p.p_stages))
            in
            t.busy_ns <- t.busy_ns +. ns;
            sched_evals := !sched_evals + so.SSearch.po_evals;
            op_done t ~ns ~what:("placement search " ^ p.p_name)
              ~ok:(so.po_best.pc_time_s <= (snd so.po_best_single).pc_time_s)
          with e -> op_failed t ~what:("placement search " ^ p.p_name) e)
        plan.pipes);
  if !tracing then
    [ ("tune.search.evals", !evals); ("tune.tunestore.hits", !hits);
      ("tune.sched.evals", !sched_evals) ]
  else []

let layer_metrics plan =
  [ ("tune.search.cold_ms", median_span_ms "tune.search.cold", "ms");
    ("tune.search.us_per_eval", Fvec.sum plan.cold_ns /. Fvec.sum plan.evals /. 1e3, "us");
    ("tune.search.replay_ms", median_span_ms "tune.search.replay", "ms");
    ("tune.autotune.sweep_ms", median_span_ms "tune.autotune.sweep", "ms");
    ("tune.memopt.optimize_us", median_span_us "tune.memopt.optimize", "us");
    ("tune.profile.profile_us", median_span_us "tune.profile.profile", "us");
    ("tune.model.kernel_time_us", median_span_us "tune.model.kernel_time", "us");
    ("tune.sched.search_us", median_span_us "tune.sched.search", "us") ]

let peak_rss_mb _ = peak_rss_mb 0
let teardown _ = ()
