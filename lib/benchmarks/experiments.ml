(** Experiment generators: one function per table/figure of the paper's
    evaluation (§5).  Each returns structured data plus a plain-text
    rendering; `bench/main.exe` drives them and EXPERIMENTS.md records the
    paper-vs-measured comparison. *)

module Ir = Lime_ir.Ir
module Value = Lime_ir.Value
module Device = Gpusim.Device
module Model = Gpusim.Model
module Profile = Gpusim.Profile
module Counters = Gpusim.Counters
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Kernel = Lime_gpu.Kernel
module Comm = Lime_runtime.Comm
module Marshal_ = Lime_runtime.Marshal
module B = Bench_def

let gpu_devices = [ Device.gtx8800; Device.gtx580; Device.hd5970 ]
let core_i7_1core = { Device.core_i7 with Device.sms = 1 }

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

type prepared = {
  p_bench : B.t;
  p_compiled : Pipeline.compiled;
  p_input : Value.t;
  p_shapes : (string * int array) list;
  p_scalars : (string * float) list;
  p_launch : Profile.t * Model.array_binding list;
  p_in_bytes : int;
  p_out_bytes : int;
  p_out_shape : int array option;
}

(** Compile and build the input — at paper scale by default, at the
    test scale with [~quick:true] (the CI path of the bench JSON
    harness).  [seed] feeds the deterministic input builders.  The
    launch of the compiled placements is priced here, once. *)
let prepare ?config ?(quick = false) ?seed (b : B.t) : prepared =
  let c =
    if quick then Registry.compile_small ?config b
    else Registry.compile ?config b
  in
  let input = if quick then b.B.input_small ?seed () else b.B.input ?seed () in
  let k = c.Pipeline.cp_kernel in
  let shapes, scalars = Lime_runtime.Engine.shapes_of_args k [ input ] in
  let launch =
    Gpusim.Autotune.launch k c.Pipeline.cp_decisions ~shapes ~scalars
  in
  (* the output-producing loop's trip count sizes the result buffer *)
  let rows = int_of_float (fst launch).Profile.p_last_parfor_items in
  let out_shape = Lime_runtime.Engine.output_shape ~rows k input in
  let out_bytes =
    match (k.Kernel.k_ret, out_shape) with
    | Ir.TArr aty, Some shape ->
        Array.fold_left ( * ) 1 shape * Ir.scalar_size_bytes aty.Ir.elem
    | _ -> 8
  in
  {
    p_bench = b;
    p_compiled = c;
    p_input = input;
    p_shapes = shapes;
    p_scalars = scalars;
    p_launch = launch;
    p_in_bytes = Marshal_.wire_size Marshal_.Custom input;
    p_out_bytes = out_bytes;
    p_out_shape = out_shape;
  }

(** Kernel-only time under a memory configuration. *)
let kernel_time_under (p : prepared) (d : Device.t) (cfg : Memopt.config) :
    float =
  (fst
     (Gpusim.Autotune.time_config_ex d p.p_compiled.Pipeline.cp_kernel cfg
        ~shapes:p.p_shapes ~scalars:p.p_scalars))
    .Model.bd_total_s

(* The prepared launch on [d]: its breakdown and counters. *)
let price (p : prepared) (d : Device.t) : Model.breakdown * Counters.t =
  let prof, bindings = p.p_launch in
  Model.kernel_time_ex d prof bindings

(** Host-side (source + sink) bytecode work: proportional to the data
    produced and consumed — a few JVM-weighted ops per element. *)
let host_task_seconds (p : prepared) : float =
  let elems = float_of_int (p.p_in_bytes + p.p_out_bytes) /. 4.0 in
  elems *. 10.0 (* gen hash / accumulate ops *) /. 3.46e9

(** The Fig 7 baseline: the whole program as bytecode on one core. *)
let baseline_seconds (p : prepared) : float =
  let k = p.p_compiled.Pipeline.cp_kernel in
  let prof, _ =
    Gpusim.Autotune.launch k
      (Memopt.optimize Memopt.config_global k)
      ~shapes:p.p_shapes ~scalars:p.p_scalars
  in
  (Model.jvm_time_profile prof *. p.p_bench.B.interop_factor)
  +. host_task_seconds p

(* One offloaded firing's legs around a kernel of [kernel_s] seconds,
   with no host-task work. *)
let offload ?serializer (p : prepared) (d : Device.t) ~(kernel_s : float) :
    Comm.phases =
  let ph =
    Comm.offload_phases d ?serializer
      ~elem_bytes:(Lime_runtime.Engine.elem_bytes p.p_input)
      ~in_bytes:p.p_in_bytes ~out_bytes:p.p_out_bytes ()
  in
  ph.Comm.kernel_s <- kernel_s;
  ph

(** End-to-end time on a device, including all communication. *)
type endtoend = {
  ee_total_s : float;
  ee_kernel_s : float;
  ee_phases : Comm.phases;
  ee_counters : Counters.t;
}

let endtoend (p : prepared) (d : Device.t) : endtoend =
  let bd, counters = price p d in
  let phases = offload p d ~kernel_s:bd.Model.bd_total_s in
  (* shared memory: no PCIe transfer and cheap buffer setup, but the
     Java <-> native marshaling remains (Fig 9a) *)
  if d.Device.kind = Device.Cpu then phases.Comm.setup_s <- 6.0e-6;
  phases.Comm.host_s <- host_task_seconds p;
  {
    ee_total_s = Comm.total phases;
    ee_kernel_s = bd.Model.bd_total_s;
    ee_phases = phases;
    ee_counters = counters;
  }

(* ------------------------------------------------------------------ *)
(* Table 1: OpenCL vs Lime programming model                           *)
(* ------------------------------------------------------------------ *)

let table1 () : string =
  String.concat "\n"
    [
      "Table 1. GPU programming in OpenCL vs. Lime.";
      "";
      Printf.sprintf "%-18s %-22s %-22s" "" "OpenCL" "Lime";
      Printf.sprintf "%-18s %-22s %-22s" "offload unit" "kernel" "filter";
      Printf.sprintf "%-18s %-22s %-22s" "communication" "API" "=> operator";
      Printf.sprintf "%-18s %-22s %-22s" "data parallelism" "manual"
        "map & reduce";
      Printf.sprintf "%-18s %-22s %-22s" "memory qualifiers" "manual"
        "compiler";
      Printf.sprintf "%-18s %-22s %-22s" "synchronization" "manual" "compiler";
      Printf.sprintf "%-18s %-22s %-22s" "scheduling" "manual" "compiler";
    ]

(* ------------------------------------------------------------------ *)
(* Table 2: evaluation platforms                                       *)
(* ------------------------------------------------------------------ *)

let table2 () : string =
  let row (d : Device.t) =
    Printf.sprintf "%-4s %-26s %5d %9d %8s %9s %8s %7s %6s"
      (match d.Device.kind with Device.Cpu -> "CPU" | Device.Gpu -> "GPU")
      d.Device.name d.Device.sms d.Device.fp32_lanes d.Device.info_const_mem
      d.Device.info_local_mem d.Device.info_l1 d.Device.info_l2
      d.Device.info_l3
  in
  String.concat "\n"
    ([
       "Table 2. Evaluation platforms (simulated device models).";
       "";
       Printf.sprintf "%-4s %-26s %5s %9s %8s %9s %8s %7s %6s" "Type" "Model"
         "Cores" "FP/core" "Const" "Local" "L1" "L2" "L3";
     ]
    @ List.map row Device.all)

(* ------------------------------------------------------------------ *)
(* Table 3: benchmark suite                                            *)
(* ------------------------------------------------------------------ *)

let table3 () : string =
  let row (b : B.t) =
    let p = prepare b in
    Printf.sprintf "%-20s %-34s %10s %10s  %s" b.B.name b.B.description
      (Lime_support.Util.bytes_to_string p.p_in_bytes)
      (Lime_support.Util.bytes_to_string p.p_out_bytes)
      b.B.datatype
  in
  String.concat "\n"
    ([
       "Table 3. Benchmarks used in the evaluation (our input sizes).";
       "";
       Printf.sprintf "%-20s %-34s %10s %10s  %s" "Name" "Description"
         "Input" "Output" "Data type";
     ]
    @ List.map row Registry.all)

(* ------------------------------------------------------------------ *)
(* Figure 7: end-to-end speedups                                       *)
(* ------------------------------------------------------------------ *)

type fig7_row = {
  f7_bench : string;
  f7_series : (string * float) list;  (** platform/config -> speedup *)
}

let fig7a () : fig7_row list =
  Registry.all
  |> List.map (fun b ->
         let p = prepare b in
         let base = baseline_seconds p in
         let one = endtoend p core_i7_1core in
         let six = endtoend p Device.core_i7 in
         {
           f7_bench = b.B.name;
           f7_series =
             [
               ("1 core", base /. one.ee_total_s);
               ("6 cores", base /. six.ee_total_s);
             ];
         })

let fig7b () : fig7_row list =
  Registry.all
  |> List.map (fun b ->
         let p = prepare b in
         let base = baseline_seconds p in
         let gtx = endtoend p Device.gtx580 in
         let amd = endtoend p Device.hd5970 in
         {
           f7_bench = b.B.name;
           f7_series =
             [
               ("GTX580", base /. gtx.ee_total_s);
               ("HD5970", base /. amd.ee_total_s);
             ];
         })

let render_fig7 ~title (rows : fig7_row list) : string =
  let headers =
    match rows with
    | r :: _ -> List.map fst r.f7_series
    | [] -> []
  in
  let header_line =
    Printf.sprintf "%-22s %s" "Benchmark"
      (String.concat " "
         (List.map (fun h -> Printf.sprintf "%12s" h) headers))
  in
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "%-22s %s" r.f7_bench
          (String.concat " "
             (List.map
                (fun (_, s) -> Printf.sprintf "%11.1fx" s)
                r.f7_series)))
      rows
  in
  String.concat "\n" ((title ^ " (speedup over Lime bytecode)") :: "" :: header_line :: lines)

(* ------------------------------------------------------------------ *)
(* Figure 8: kernel quality vs hand-tuned, 8 memory configurations     *)
(* ------------------------------------------------------------------ *)

type fig8_cell = {
  f8_config : string;
  f8_rel : float;  (** speedup relative to hand-tuned (>1 = Lime faster) *)
}

type fig8_row = { f8_bench : string; f8_cells : fig8_cell list }

(* One sweep per benchmark prices the eight cells and the hand-tuned
   comparator, whose config is always one of the eight. *)
let fig8_for (d : Device.t) : fig8_row list =
  Registry.fig8
  |> List.map (fun b ->
         let p = prepare b in
         let entries =
           Gpusim.Autotune.sweep d p.p_compiled.Pipeline.cp_kernel
             ~shapes:p.p_shapes ~scalars:p.p_scalars
         in
         let time cfg =
           (List.find (fun e -> e.Gpusim.Autotune.at_config = cfg) entries)
             .Gpusim.Autotune.at_time_s
         in
         let hand =
           match List.assoc_opt d.Device.name b.B.hand with
           | Some h -> h
           | None ->
               { B.ht_config = b.B.best_config; ht_factor = 1.0 }
         in
         let hand_s = time hand.B.ht_config *. hand.B.ht_factor in
         let cells =
           List.map
             (fun (cname, cfg) ->
               { f8_config = cname; f8_rel = hand_s /. time cfg })
             Memopt.fig8_configs
         in
         { f8_bench = b.B.name; f8_cells = cells })

let render_fig8 (d : Device.t) (rows : fig8_row list) : string =
  let header =
    Printf.sprintf "%-32s %s" "Configuration"
      (String.concat " "
         (List.map
            (fun r ->
              Printf.sprintf "%13s"
                (if String.length r.f8_bench > 13 then
                   String.sub r.f8_bench 0 13
                 else r.f8_bench))
            rows))
  in
  let config_names = List.map fst Memopt.fig8_configs in
  let lines =
    List.map
      (fun cname ->
        let cells =
          List.map
            (fun r ->
              let c = List.find (fun c -> c.f8_config = cname) r.f8_cells in
              Printf.sprintf "%13.2f" c.f8_rel)
            rows
        in
        Printf.sprintf "%-32s %s" cname (String.concat " " cells))
      config_names
  in
  let best_line =
    let cells =
      List.map
        (fun r ->
          let best =
            List.fold_left (fun acc c -> Float.max acc c.f8_rel) 0.0 r.f8_cells
          in
          Printf.sprintf "%13.2f" best)
        rows
    in
    Printf.sprintf "%-32s %s" "Best (paper: 0.75-1.40)"
      (String.concat " " cells)
  in
  let lines = lines @ [ String.make 32 '-'; best_line ] in
  String.concat "\n"
    (Printf.sprintf
       "Figure 8 (%s): Lime vs hand-tuned kernel times\n(speedup relative to \
        hand-tuned; >1.00 means the generated kernel is faster)\n"
       d.Device.name
    :: header :: lines)

(* ------------------------------------------------------------------ *)
(* Figure 9: computation vs communication                              *)
(* ------------------------------------------------------------------ *)

type fig9_row = {
  f9_bench : string;
  f9_phases : Comm.phases;
}

let fig9 (d : Device.t) : fig9_row list =
  Registry.all
  |> List.map (fun b ->
         let p = prepare b in
         let ee = endtoend p d in
         { f9_bench = b.B.name; f9_phases = ee.ee_phases })

let render_fig9 (d : Device.t) (rows : fig9_row list) : string =
  let header =
    Printf.sprintf "%-22s %8s %8s %8s %8s %8s %8s %8s" "Benchmark" "kernel%"
      "javaM%" "jni%" "cM%" "setup%" "pcie%" "host%"
  in
  let lines =
    List.map
      (fun r ->
        let t = Comm.total r.f9_phases in
        let pct x = 100.0 *. x /. t in
        Printf.sprintf "%-22s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f"
          r.f9_bench
          (pct r.f9_phases.Comm.kernel_s)
          (pct r.f9_phases.Comm.java_marshal_s)
          (pct r.f9_phases.Comm.jni_s)
          (pct r.f9_phases.Comm.c_marshal_s)
          (pct r.f9_phases.Comm.setup_s)
          (pct r.f9_phases.Comm.pcie_s)
          (pct r.f9_phases.Comm.host_s))
      rows
  in
  String.concat "\n"
    (Printf.sprintf "Figure 9 (%s): computation and communication costs\n"
       d.Device.name
    :: header :: lines)

(* ------------------------------------------------------------------ *)
(* §4.3 ablation: generic vs custom marshaling                         *)
(* ------------------------------------------------------------------ *)

type marshal_ablation = {
  ma_bench : string;
  ma_custom_pct : float;  (** marshaling share of total, custom serializers *)
  ma_generic_pct : float;  (** same with the generic marshaller *)
}

let marshal_ablation (d : Device.t) : marshal_ablation list =
  Registry.all
  |> List.map (fun b ->
         let p = prepare b in
         let kernel_s = (fst (price p d)).Model.bd_total_s in
         let pct serializer =
           let ph = offload ~serializer p d ~kernel_s in
           100.0 *. ph.Comm.java_marshal_s /. Comm.total ph
         in
         {
           ma_bench = b.B.name;
           ma_custom_pct = pct Marshal_.Custom;
           ma_generic_pct = pct Marshal_.Generic;
         })

let render_marshal_ablation (rows : marshal_ablation list) : string =
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "%-22s %14.1f%% %14.1f%%" r.ma_bench r.ma_custom_pct
          r.ma_generic_pct)
      rows
  in
  String.concat "\n"
    ("Marshaling ablation (§4.3): Java marshaling share of end-to-end time"
    :: Printf.sprintf "%-22s %15s %15s" "Benchmark" "custom" "generic"
    :: lines)

(* ------------------------------------------------------------------ *)
(* §2: host-glue boilerplate volume                                    *)
(* ------------------------------------------------------------------ *)

let glue_volume () : (string * int * int) list =
  Registry.all
  |> List.map (fun b ->
         let c = Registry.compile b in
         let glue = Lime_gpu.Hostgen.generate c.Pipeline.cp_kernel in
         ( b.B.name,
           Lime_support.Util.count_lines glue,
           Lime_support.Util.count_lines c.Pipeline.cp_opencl ))

(* ------------------------------------------------------------------ *)
(* §5.3 future work: overlap + direct marshaling                       *)
(* ------------------------------------------------------------------ *)

type overlap_row = {
  ov_bench : string;
  ov_serial_ms : float;  (** n firings, serial schedule *)
  ov_pipelined_speedup : float;  (** double-buffered overlap *)
  ov_direct_speedup : float;  (** overlap + direct-to-device marshaling *)
  ov_comm_share : float;  (** communication share in the serial schedule *)
}

(** Projected gains of the two §5.3 "future work" optimizations the
    runtime implements: pipelined double buffering and the direct-to-device
    serializer.  [firings] models a streaming execution (e.g. simulation
    steps); the gains grow with the communication share of Fig 9.  The
    pipelined clock is {!Lime_runtime.Schedule.overlapped_makespan} — the
    engine's and the placement search's — over three single-leg stages:
    the host thread (marshaling, JNI, setup and the source/sink work), the
    PCIe link and the device. *)
let overlap ?(firings = 32) (d : Device.t) : overlap_row list =
  let module S = Lime_runtime.Schedule in
  Registry.all
  |> List.map (fun b ->
         let p = prepare b in
         let kernel_s = (fst (price p d)).Model.bd_total_s in
         let firing serializer =
           let ph = offload ~serializer p d ~kernel_s in
           ph.Comm.host_s <- host_task_seconds p;
           ph
         in
         let pipelined (ph : Comm.phases) =
           let leg r s = [ { S.lg_resource = r; lg_seconds = s } ] in
           S.overlapped_makespan ~firings
             [
               leg "host"
                 (ph.Comm.java_marshal_s +. ph.Comm.jni_s
                +. ph.Comm.c_marshal_s +. ph.Comm.setup_s +. ph.Comm.host_s);
               leg "link" ph.Comm.pcie_s;
               leg "dev" ph.Comm.kernel_s;
             ]
         in
         let ph = firing Marshal_.Custom in
         let serial = float_of_int firings *. Comm.total ph in
         {
           ov_bench = b.B.name;
           ov_serial_ms = serial *. 1e3;
           ov_pipelined_speedup = serial /. pipelined ph;
           ov_direct_speedup = serial /. pipelined (firing Marshal_.Direct);
           ov_comm_share = Comm.communication ph /. Comm.total ph;
         })

let render_overlap ?(firings = 32) (d : Device.t) (rows : overlap_row list) :
    string =
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "%-22s %10.2f %8.0f%% %12.2fx %12.2fx" r.ov_bench
          r.ov_serial_ms
          (100.0 *. r.ov_comm_share)
          r.ov_pipelined_speedup r.ov_direct_speedup)
      rows
  in
  String.concat "\n"
    (Printf.sprintf
       "§5.3 future work on %s (%d firings): overlap + direct marshaling"
       d.Device.name firings
    :: Printf.sprintf "%-22s %10s %9s %13s %13s" "Benchmark" "serial ms"
         "comm%" "pipelined" "+direct"
    :: lines)

(* ------------------------------------------------------------------ *)
(* Optimizer — beam-searched rewrite schedules vs the Fig 8 sweep      *)
(* ------------------------------------------------------------------ *)

type optimize_row = {
  op_bench : string;
  op_baseline_s : float;
  op_fig8_name : string;
  op_fig8_s : float;
  op_beam_s : float;
  op_sequence : string list;
  op_evals : int;
}

(** One row per registry workload: modeled kernel time of the untouched
    kernel, the best Fig 8 configuration, and the beam-searched rewrite
    schedule on device [d].  Beam seeding guarantees
    [op_beam_s <= op_fig8_s]; on the TMatMul showcase the inequality is
    strict (the point of the rewrite engine). *)
let optimize_rows ?width ?depth ?(quick = false) ?seed (d : Device.t) :
    optimize_row list =
  List.map
    (fun (b : B.t) ->
      let p = prepare ~quick ?seed b in
      let o =
        Lime_rewrite.Search.search ?width ?depth d
          p.p_compiled.Pipeline.cp_kernel ~shapes:p.p_shapes
          ~scalars:p.p_scalars
      in
      let op_fig8_name, f8 = o.Lime_rewrite.Search.so_fig8_best in
      {
        op_bench = b.B.name;
        op_baseline_s = o.Lime_rewrite.Search.so_baseline.sc_time_s;
        op_fig8_name;
        op_fig8_s = f8.Lime_rewrite.Search.sc_time_s;
        op_beam_s = o.Lime_rewrite.Search.so_best.sc_time_s;
        op_sequence = o.Lime_rewrite.Search.so_best.sc_sequence;
        op_evals = o.Lime_rewrite.Search.so_evals;
      })
    Registry.workloads

(* ------------------------------------------------------------------ *)
(* Multi-device placement (lib/sched) vs the best single device        *)
(* ------------------------------------------------------------------ *)

module SPlacement = Lime_sched.Placement
module SProbe = Lime_sched.Probe
module SSearch = Lime_sched.Search
module SExec = Lime_sched.Exec

type multidev_row = {
  md_bench : string;
  md_firings : int;
  md_singles : (string * float) list;
      (** all-host and all-on-one-device baselines, modeled seconds *)
  md_best_single : string;
  md_single_s : float;
  md_placed_s : float;  (** the searched placement's modeled makespan *)
  md_spec : string;
  md_evals : int;
  md_exhaustive : bool;
  md_split : bool;  (** kernels spread over more than one device *)
  md_bitexact : bool;
      (** multi-device engine sink equals the single-device engine sink *)
}

(** The class holding the program's static pipeline [main], and its
    parameter count (the registry mains are [main(count, steps)] except
    N-Body Pipe's [main(steps)]). *)
let entry_of (md : Ir.modul) : string * int =
  match
    Hashtbl.fold
      (fun _ (f : Ir.func) acc ->
        if f.Ir.fn_method = "main" && f.Ir.fn_static then
          Some (f.Ir.fn_class, List.length f.Ir.fn_params)
        else acc)
      md.Ir.md_funcs None
  with
  | Some e -> e
  | None -> invalid_arg "program has no static main"

(* Mosaic's [count] includes the 512-tile reference library (its kernel
   ranges over [count - LIB]); every other main takes [count] work items
   directly. *)
let multidev_count (b : B.t) ~(base : int) : int =
  if b.B.name = "Mosaic" then Mosaic.lib_tiles + base else base

let main_args ~params ~count ~steps =
  match params with
  | 1 -> [ Value.VInt steps ]
  | _ -> [ Value.VInt count; Value.VInt steps ]

(* Probe a pipeline without firing it: a finish hook that records the
   stages and returns (same trick as test/test_sched.ml). *)
let probe_stages (c : Pipeline.compiled) (args : Value.t list) :
    SProbe.stage list =
  let md = c.Pipeline.cp_module in
  let cls, _ = entry_of md in
  let stages = ref [] in
  let st = Lime_ir.Interp.create md in
  st.Lime_ir.Interp.finish_hook <-
    (fun st' graph _iters -> stages := SProbe.probe st'.Lime_ir.Interp.md graph);
  ignore (Lime_ir.Interp.run st ~cls ~meth:"main" args);
  !stages

(** The pipelined registry workloads: everything with a [=>] graph main
    (the paper's nine plus N-Body Pipe; TMatMul is kernel-only).  Each
    yields the compiled program probed for *scoring* — the single-kernel
    suite scaled by the main's count argument, N-Body Pipe recompiled at
    a count where its two n² kernels dominate the transfers, which is
    where a cross-device split beats any single device. *)
let multidev_workloads : B.t list =
  List.filter (fun (b : B.t) -> b.B.name <> "TMatMul") Registry.workloads

let multidev_scoring ~(quick : bool) (b : B.t) :
    Pipeline.compiled * Value.t list * int =
  let firings = 16 in
  if b.B.name = "N-Body Pipe" then begin
    let n = if quick then 1024 else 2048 in
    let src = Nbody_pipe.source_for n in
    let c = Lime_gpu.Pipeline.compile ~worker:b.B.worker src in
    (c, [ Value.VInt firings ], firings)
  end
  else begin
    let c = Registry.compile_small b in
    let _, params = entry_of c.Pipeline.cp_module in
    let count = multidev_count b ~base:(if quick then 64 else 256) in
    (c, main_args ~params ~count ~steps:firings, firings)
  end

(* Sink agreement at test scale: the placement-aware engine must deliver
   exactly the single-device engine's sink value. *)
let multidev_bitexact (b : B.t) (choose : SProbe.stage list -> firings:int -> SPlacement.t) : bool =
  let c =
    if b.B.name = "N-Body Pipe" then
      Lime_gpu.Pipeline.compile ~worker:b.B.worker (Nbody_pipe.source_for 64)
    else Registry.compile_small b
  in
  let md = c.Pipeline.cp_module in
  let cls, params = entry_of md in
  let args = main_args ~params ~count:(multidev_count b ~base:64) ~steps:2 in
  let _, legacy =
    Lime_runtime.Engine.run_program Lime_runtime.Engine.default_config md
      ~cls ~meth:"main" args
  in
  let _, placed, _ =
    SExec.run_program Lime_runtime.Engine.default_config ~choose md ~cls
      ~meth:"main" args
  in
  Value.approx_equal ~rtol:0.0 ~atol:0.0
    legacy.Lime_runtime.Engine.last_value
    placed.Lime_runtime.Engine.last_value

let multidev_rows ?(quick = false) () : multidev_row list =
  List.map
    (fun (b : B.t) ->
      let c, args, firings = multidev_scoring ~quick b in
      let stages = probe_stages c args in
      let o = SSearch.search ~firings stages in
      let best = o.SSearch.po_best in
      let sname, single = o.SSearch.po_best_single in
      let devices_used =
        List.sort_uniq compare
          (List.filter_map
             (fun (_, a) ->
               match a with
               | SPlacement.On d -> Some d.Device.name
               | SPlacement.Host -> None)
             best.SSearch.pc_placement)
      in
      let bitexact =
        multidev_bitexact b (fun stages ~firings ->
            (SSearch.search ~firings stages).SSearch.po_best
              .SSearch.pc_placement)
      in
      {
        md_bench = b.B.name;
        md_firings = firings;
        md_singles =
          List.map
            (fun (n, (cand : SSearch.candidate)) ->
              (n, cand.SSearch.pc_time_s))
            o.SSearch.po_singles;
        md_best_single = sname;
        md_single_s = single.SSearch.pc_time_s;
        md_placed_s = best.SSearch.pc_time_s;
        md_spec = SPlacement.to_spec best.SSearch.pc_placement;
        md_evals = o.SSearch.po_evals;
        md_exhaustive = o.SSearch.po_exhaustive;
        md_split = List.length devices_used > 1;
        md_bitexact = bitexact;
      })
    multidev_workloads

let render_multidev (rows : multidev_row list) : string =
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "%-22s %11.3e %11.3e %7.2fx %5d %-10s %-5s %s"
          r.md_bench r.md_single_s r.md_placed_s
          (r.md_single_s /. r.md_placed_s)
          r.md_evals
          (if r.md_exhaustive then "exhaustive" else "beam")
          (if r.md_bitexact then "ok" else "DRIFT")
          r.md_spec)
      rows
  in
  String.concat "\n"
    (Printf.sprintf
       "multi-device placement vs best single device (%d firings, modeled)"
       (match rows with r :: _ -> r.md_firings | [] -> 0)
    :: Printf.sprintf "%-22s %11s %11s %8s %5s %-10s %-5s %s" "Benchmark"
         "best single" "placed" "speedup" "evals" "mode" "sink" "placement"
    :: lines)

let render_optimize (d : Device.t) (rows : optimize_row list) : string =
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "%-22s %11.3e %11.3e %11.3e %7.2fx %6d  %s" r.op_bench
          r.op_baseline_s r.op_fig8_s r.op_beam_s
          (r.op_fig8_s /. r.op_beam_s)
          r.op_evals
          (Lime_rewrite.Search.seq_str r.op_sequence))
      rows
  in
  String.concat "\n"
    (Printf.sprintf "beam-searched schedules on %s (seconds, modeled)"
       d.Device.name
    :: Printf.sprintf "%-22s %11s %11s %11s %8s %6s  %s" "Benchmark"
         "baseline" "fig8 best" "beam" "vs fig8" "evals" "sequence"
    :: lines)
