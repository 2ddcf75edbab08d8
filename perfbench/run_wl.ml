(* run: one op is one host execution at test scale — either the
   interpreter running a registry worker on its small input, or the
   task-graph engine running a registry [main] on the default GTX 580
   configuration with functional kernels.  Compilation, inputs and
   reference outputs are made in set-up. *)

open Bench
module B = Lime_benchmarks.Bench_def
module Registry = Lime_benchmarks.Registry
module Pipeline = Lime_gpu.Pipeline
module Interp = Lime_ir.Interp
module Value = Lime_ir.Value
module Engine = Lime_runtime.Engine

type worker = {
  w_name : string;
  w_md : Lime_ir.Ir.modul;
  w_cls : string;
  w_meth : string;
  w_input : Value.t;
  w_expected : Value.t;  (** [Bench_def.reference] of the input *)
  w_compiled : Pipeline.compiled;
  w_shapes : (string * int array) list;
  w_scalars : (string * float) list;
  w_bindings : Gpusim.Model.array_binding list;
}

type main = {
  m_name : string;
  m_md : Lime_ir.Ir.modul;
  m_cls : string;
  m_args : Value.t list;
  m_expected : Value.t;  (** the sink of the host-only run *)
}

type op = Worker of worker | Main of main

type plan = {
  ops : op array;
  interp_ops : Fvec.t;  (** interpreter operations per traced worker run *)
  minor_words : Fvec.t;
}

(* Programs whose one run would outweigh a large share of a pass are left
   out, so that a pass stays short and every op is repeated often enough
   for its fastest repetitions to be steady: as interpreted workers
   Mosaic (≈0.75 s), TMatMul (≈2.3 s), RPES (≈120 ms) and MRIQ (≈70 ms);
   as engine runs the mains of Mosaic and RPES (and TMatMul has none).
   The fifteen ops left take 1–50 ms each. *)
let heavy_workers = [ "Mosaic"; "TMatMul"; "Parboil-RPES"; "Parboil-MRIQ" ]
let heavy_mains = [ "Mosaic"; "TMatMul"; "Parboil-RPES" ]

(* The arguments of a registry [main]: (work items, 2 firings), or just
   the 2 firings for N-Body Pipe's single-argument [main(steps)]. *)
let main_args (b : B.t) ~params =
  let items =
    match b.name with
    | "JG-Crypt" -> 32
    | "N-Body (Single)" | "N-Body (Double)" -> 16
    | _ -> 8
  in
  if params = 1 then [ Value.VInt 2 ] else [ Value.VInt items; Value.VInt 2 ]

let static_main (md : Lime_ir.Ir.modul) =
  Hashtbl.fold
    (fun _ (f : Lime_ir.Ir.func) acc ->
      if f.fn_method = "main" && f.fn_static then
        Some (f.fn_class, List.length f.fn_params)
      else acc)
    md.md_funcs None

let make_worker seed (b : B.t) =
  let c = Registry.compile_small b in
  let input = b.input_small ~seed () in
  let cls, meth = split_worker b.worker in
  let k = c.cp_kernel in
  let shapes, scalars = Engine.shapes_of_args k [ input ] in
  let prof = Gpusim.Profile.profile k c.cp_decisions ~shapes ~scalars in
  let rows = int_of_float prof.Gpusim.Profile.p_last_parfor_items in
  let out_shape = Engine.output_shape ~rows k input in
  {
    w_name = b.name;
    w_md = c.cp_module;
    w_cls = cls;
    w_meth = meth;
    w_input = input;
    w_expected = b.reference input;
    w_compiled = c;
    w_shapes = shapes;
    w_scalars = scalars;
    w_bindings = Engine.array_bindings k c.cp_decisions [ input ] out_shape;
  }

let make_main (b : B.t) =
  let c = Registry.compile_small b in
  match static_main c.cp_module with
  | None -> None
  | Some (cls, params) ->
      let args = main_args b ~params in
      let host = { Engine.default_config with Engine.device = None } in
      let _, rep = Engine.run_program host c.cp_module ~cls ~meth:"main" args in
      Some
        {
          m_name = b.name ^ " main";
          m_md = c.cp_module;
          m_cls = cls;
          m_args = args;
          m_expected = rep.Engine.last_value;
        }

(* 15 ops a pass, about 110 passes in 30 s, so 90 kept samples *)
let tail_q = 0.85

let setup (o : opts) =
  let pick names = List.filter (fun (b : B.t) -> not (List.mem b.name names)) in
  let workers =
    List.map (fun b -> Worker (make_worker o.seed b)) (pick heavy_workers Registry.workloads)
  in
  let mains =
    List.filter_map
      (fun b -> Option.map (fun m -> Main m) (make_main b))
      (pick heavy_mains Registry.workloads)
  in
  { ops = Array.of_list (workers @ mains); interp_ops = Fvec.create (); minor_words = Fvec.create () }

let counted (c : Interp.counters) =
  c.alu + c.divs + c.sqrts + c.transcendentals + c.mem_reads + c.mem_writes
  + c.bounds_checks + c.field_accesses + c.branches + c.calls

let run_worker plan w =
  span "run.interp.worker" (fun () ->
      let w0 = Gc.minor_words () in
      let st = Interp.create w.w_md in
      let v = Interp.run st ~cls:w.w_cls ~meth:w.w_meth [ w.w_input ] in
      let n = counted st.counters in
      if !tracing then begin
        Fvec.add plan.minor_words (Gc.minor_words () -. w0);
        Fvec.add plan.interp_ops (float n)
      end;
      (v, n))

(* the layers the host tier leans on, called on the same worker's data *)
let probe_layers w =
  let enc = span "run.marshal.encode" (fun () -> Lime_runtime.Marshal.encode w.w_input) in
  ignore (span "run.marshal.decode" (fun () -> Lime_runtime.Marshal.decode enc));
  let c = w.w_compiled in
  let prof =
    span "run.profile.profile" (fun () ->
        Gpusim.Profile.profile c.cp_kernel c.cp_decisions ~shapes:w.w_shapes
          ~scalars:w.w_scalars)
  in
  ignore
    (span "run.model.kernel_time" (fun () ->
         Gpusim.Model.kernel_time_ex Gpusim.Device.gtx580 prof w.w_bindings));
  Bytes.length enc

let pass (_ : opts) plan t =
  let firings = ref 0 and ops = ref 0 and bytes = ref 0 in
  Array.iter
    (function
      | Worker w -> (
          try
            let (v, n), ns = timed (fun () -> run_worker plan w) in
            t.busy_ns <- t.busy_ns +. ns;
            op_done t ~ns ~what:("interp " ^ w.w_name)
              ~ok:(Value.approx_equal ~rtol:2e-4 ~atol:1e-5 v w.w_expected);
            if !tracing then begin
              ops := !ops + n;
              bytes := !bytes + probe_layers w
            end
          with e -> op_failed t ~what:("interp " ^ w.w_name) e)
      | Main m -> (
          try
            let (_, rep), ns =
              timed (fun () ->
                  span "run.engine.run" (fun () ->
                      Engine.run_program Engine.default_config m.m_md ~cls:m.m_cls
                        ~meth:"main" m.m_args))
            in
            t.busy_ns <- t.busy_ns +. ns;
            firings := !firings + rep.Engine.firings;
            op_done t ~ns ~what:("engine " ^ m.m_name)
              ~ok:(Value.approx_equal ~rtol:0.0 ~atol:0.0 rep.Engine.last_value m.m_expected)
          with e -> op_failed t ~what:("engine " ^ m.m_name) e))
    plan.ops;
  if !tracing then
    [ ("run.interp.ops", !ops); ("run.engine.firings", !firings);
      ("run.marshal.bytes", !bytes) ]
  else []

let layer_metrics plan =
  let worker_ns = durations "run.interp.worker" in
  [ ("run.interp.worker_ms", median_span_ms "run.interp.worker", "ms");
    ( "run.interp.mops_per_s",
      Fvec.sum plan.interp_ops /. (Fvec.sum worker_ns /. 1e9) /. 1e6,
      "Mop/s" );
    ("run.interp.minor_words", median_of plan.minor_words, "words");
    ("run.engine.run_ms", median_span_ms "run.engine.run", "ms");
    ("run.marshal.encode_us", median_span_us "run.marshal.encode", "us");
    ("run.marshal.decode_us", median_span_us "run.marshal.decode", "us");
    ("run.profile.profile_us", median_span_us "run.profile.profile", "us");
    ("run.model.kernel_time_us", median_span_us "run.model.kernel_time", "us") ]

let peak_rss_mb _ = peak_rss_mb 0
let teardown _ = ()
