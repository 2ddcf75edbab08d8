(** Task-graph execution engine.

    Implements the semantics of the [task], [=>] and [finish] operators: a
    linear pipeline of workers fired repeatedly.  Tasks classified as
    offloadable filters (static [local] workers with value ports containing
    a map or reduce) run "on the device": their input is really marshalled
    to the wire format, really decoded on the simulated C side, the kernel
    executes functionally in the reference interpreter (optionally, for
    validation) and its *time* comes from the device model; everything else
    runs in the bytecode interpreter on the host.

    The engine attaches to an {!Lime_ir.Interp.state} as its [finish] hook,
    so Lime programs that build and finish task graphs execute transparently
    — this is the moral equivalent of the paper's JVM + OpenCL runtime
    pairing. *)

module Ir = Lime_ir.Ir
module Value = Lime_ir.Value
module Interp = Lime_ir.Interp
module Kernel = Lime_gpu.Kernel
module Memopt = Lime_gpu.Memopt

let src_log = Logs.Src.create "lime.runtime" ~doc:"Lime task-graph runtime"

module Log = (val Logs.src_log src_log : Logs.LOG)

type config = {
  device : Gpusim.Device.t option;  (** [None] = run everything as bytecode *)
  opt_config : Memopt.config;
  functional : bool;
      (** execute offloaded kernels for real (validation) rather than
          producing a zero-filled result of the right shape *)
  serializer : Marshal.serializer;
  placement : (string * Gpusim.Device.t option) list option;
      (** per-task placement (task name → device, [None] = host).  When
          set, it overrides [device] per stage: each offloadable task runs
          on its own assigned device, tasks absent from the list stay on
          the host, and adjacent stages sharing a device keep the value
          resident (no transfer charged on that edge).  [None] = the
          legacy single-device mode. *)
}

let default_config =
  {
    device = Some Gpusim.Device.gtx580;
    opt_config = Memopt.config_all;
    functional = true;
    serializer = Marshal.Custom;
    placement = None;
  }

(** Everything observable about one task firing.  Device firings carry the
    device model, the analytic launch profile and the kernel-time
    breakdown; host firings only the task name and its [host_s] leg. *)
type firing_info = {
  fi_task : string;
  fi_device : bool;
  fi_phases : Comm.phases;
  fi_dev : Gpusim.Device.t option;
  fi_profile : Gpusim.Profile.t option;
  fi_breakdown : Gpusim.Model.breakdown option;
  fi_counters : Gpusim.Counters.t option;
  fi_bindings : Gpusim.Model.array_binding list;
}

let firing_hooks : firing_info Lime_support.Hooks.t =
  Lime_support.Hooks.create ()

type report = {
  mutable firings : int;
  mutable offloaded_tasks : string list;
  mutable host_tasks : string list;
  mutable placements : (string * Gpusim.Device.t option) list;
      (** per-task placement ground truth, in pipeline order: the device a
          task actually fired on, [None] for host tasks *)
  phases : Comm.phases;
  mutable last_value : Value.t;  (** value that reached the sink last *)
  mutable overlapped_s : float;
      (** simulated wall-clock of the firings with double-buffered overlap
          ({!Schedule.overlapped_makespan}); [Comm.total phases] is the
          serial clock *)
}

let fresh_report () =
  {
    firings = 0;
    offloaded_tasks = [];
    host_tasks = [];
    placements = [];
    phases = Comm.zero ();
    last_value = Value.VUnit;
    overlapped_s = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Kernel output shape inference                                       *)
(* ------------------------------------------------------------------ *)

(** Shape of the kernel result: dynamic dimensions take the trip count of
    the output-producing parallel loop ([rows]); when absent, fall back to
    the input's outer length. *)
let output_shape ?rows (k : Kernel.kernel) (input : Value.t) :
    int array option =
  match k.Kernel.k_ret with
  | Ir.TArr aty ->
      let outer =
        match rows with
        | Some r -> r
        | None -> (
            match input with
            | Value.VArr a when Value.rank a > 0 -> a.Value.shape.(0)
            | _ -> 0)
      in
      Some
        (Array.of_list
           (List.map
              (function Ir.DFixed n -> n | Ir.DDyn -> outer)
              aty.Ir.dims))
  | _ -> None

let zero_result ?rows (k : Kernel.kernel) (input : Value.t) : Value.t =
  match (k.Kernel.k_ret, output_shape ?rows k input) with
  | Ir.TArr aty, Some shape ->
      Value.VArr (Value.make_arr ~is_value:true aty.Ir.elem shape)
  | Ir.TScalar Ir.SFloat, _ -> Value.VFloat 0.0
  | Ir.TScalar Ir.SDouble, _ -> Value.VDouble 0.0
  | Ir.TScalar Ir.SLong, _ -> Value.VLong 0L
  | Ir.TScalar _, _ -> Value.VInt 0
  | _ -> Value.VUnit

(* ------------------------------------------------------------------ *)
(* The firing model: what one firing costs and which resources it uses *)
(* ------------------------------------------------------------------ *)

let shapes_of_args (k : Kernel.kernel) (args : Value.t list) :
    (string * int array) list * (string * float) list =
  let shapes = ref [] and scalars = ref [] in
  List.iter2
    (fun (p, _) v ->
      match v with
      | Value.VArr a -> shapes := (p, a.Value.shape) :: !shapes
      | Value.VInt i -> scalars := (p, float_of_int i) :: !scalars
      | Value.VFloat f | Value.VDouble f -> scalars := (p, f) :: !scalars
      | Value.VLong l -> scalars := (p, Int64.to_float l) :: !scalars
      | _ -> ())
    k.Kernel.k_params args;
  (List.rev !shapes, List.rev !scalars)

(* Kept for callers holding runtime values; the pricing is
   {!Gpusim.Autotune.bindings_of}'s. *)
let array_bindings (k : Kernel.kernel) (decisions : Memopt.decision list)
    (args : Value.t list) (result_shape : int array option) :
    Gpusim.Model.array_binding list =
  Gpusim.Autotune.bindings_of k decisions
    ~shapes:(fst (shapes_of_args k args)) ~out_shape:result_shape

(* One direction of the Fig 6 crossing: the Java side encodes, the C side
   decodes.  The Direct serializer emits device layout, skipping the wire
   header and the C-side conversion (§5.3 future work); scalars keep the
   wire format and ride in the args struct. *)
let encode (serializer : Marshal.serializer) (v : Value.t) : bytes =
  match serializer with
  | Marshal.Custom -> Marshal.encode v
  | Marshal.Generic -> Marshal.encode_generic v
  | Marshal.Direct -> Marshal.encode_direct v

let decode (serializer : Marshal.serializer) (v : Value.t) (e : bytes) :
    Value.t =
  match (serializer, v) with
  | Marshal.Direct, Value.VArr a ->
      Marshal.decode_direct ~elem:a.Value.elem ~shape:a.Value.shape e
  | Marshal.Direct, v -> v
  | (Marshal.Custom | Marshal.Generic), _ -> Marshal.decode e

let elem_bytes = function
  | Value.VArr a -> Marshal.elem_width a.Value.elem
  | _ -> 4

(* Residency: an edge whose two ends fire on the same device keeps the
   value there, so neither end transfers it. *)
let transfers (devices : string option array) (k : int) : bool * bool =
  let shared j =
    j >= 0
    && j < Array.length devices
    && devices.(k) <> None
    && devices.(j) = devices.(k)
  in
  (not (shared (k - 1)), not (shared (k + 1)))

let host_legs (seconds : float) : Schedule.leg list =
  [ { Schedule.lg_resource = "host"; lg_seconds = seconds } ]

(* The legs in execution order: host-side marshal work on the host thread,
   PCIe on this device's link, the kernel on this device. *)
let device_legs (serializer : Marshal.serializer) (d : Gpusim.Device.t)
    ~(elem_bytes : int) ~(in_bytes : int) ~(out_bytes : int)
    ~(kernel_s : float) ((upload, download) : bool * bool) :
    Comm.phases list * Schedule.leg list =
  let crossing go bytes =
    if go then Some (Comm.transfer_phases d ~serializer ~elem_bytes ~bytes ())
    else None
  in
  let up = crossing upload in_bytes and down = crossing download out_bytes in
  let leg lg_resource lg_seconds = { Schedule.lg_resource; lg_seconds } in
  let host p = leg "host" (Comm.total p -. p.Comm.pcie_s)
  and link p = leg ("link:" ^ d.Gpusim.Device.name) p.Comm.pcie_s in
  let legs =
    (match up with Some p -> [ host p; link p ] | None -> [])
    @ [ leg ("dev:" ^ d.Gpusim.Device.name) kernel_s ]
    @ match down with Some p -> [ link p; host p ] | None -> []
  in
  (List.filter_map Fun.id [ up; down ], legs)

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

type compiled = {
  cs_kernel : Kernel.kernel;
  cs_decisions : Memopt.decision list;
  cs_state : Interp.state Lazy.t;
      (** the kernel wrapped for functional execution, loaded once for
          all of the stage's firings *)
}

type stage = {
  sg_node : Value.task_node;
  sg_task : string;
  sg_verdict : Kernel.offload_verdict;
  sg_compiled : compiled Lazy.t;
}

let stages (cfg : config) (md : Ir.modul) (graph : Value.task_node list) :
    stage list =
  List.map
    (fun node ->
      let td = node.Value.tk_desc in
      let name = Ir.qualify td.Ir.td_class td.Ir.td_method in
      {
        sg_node = node;
        sg_task = name;
        sg_verdict = Kernel.classify md td;
        sg_compiled =
          lazy
            (let kernel = Kernel.extract md ~worker:name in
             {
               cs_kernel = kernel;
               cs_decisions = Memopt.optimize cfg.opt_config kernel;
               cs_state = lazy (Interp.create (Kernel.to_module kernel));
             });
      })
    graph

let launch (c : compiled) (input : Value.t) :
    Gpusim.Profile.t * Gpusim.Model.array_binding list =
  let shapes, scalars = shapes_of_args c.cs_kernel [ input ] in
  Gpusim.Autotune.launch c.cs_kernel c.cs_decisions ~shapes ~scalars

(* ------------------------------------------------------------------ *)
(* One firing                                                          *)
(* ------------------------------------------------------------------ *)

let host_firing (st : Interp.state) (sg : stage) (input : Value.t) :
    Value.t * float =
  let args =
    match sg.sg_node.Value.tk_desc.Ir.td_in with
    | Ir.TUnit -> []
    | _ -> [ input ]
  in
  let before = Interp.copy_counters st.Interp.counters in
  let result =
    Interp.call_function st sg.sg_task sg.sg_node.Value.tk_instance args
  in
  let delta = Interp.diff_counters st.Interp.counters before in
  (result, Gpusim.Device.jvm_time delta)

let fire_host (st : Interp.state) (report : report) (sg : stage)
    (input : Value.t) : Value.t * Schedule.leg list =
  let result, host_s = host_firing st sg input in
  report.phases.Comm.host_s <- report.phases.Comm.host_s +. host_s;
  let ph = Comm.zero () in
  ph.Comm.host_s <- host_s;
  Lime_support.Hooks.emit firing_hooks
    {
      fi_task = sg.sg_task;
      fi_device = false;
      fi_phases = ph;
      fi_dev = None;
      fi_profile = None;
      fi_breakdown = None;
      fi_counters = None;
      fi_bindings = [];
    };
  (result, host_legs host_s)

(** Simulate (and optionally functionally execute) one kernel firing on
    [d].  [crossing] says whether the input and the output actually cross
    the host↔device boundary ({!transfers}).  Returns the result and the
    firing's resource legs for the overlap clock. *)
let fire_device (cfg : config) (report : report) (c : compiled)
    (d : Gpusim.Device.t) (crossing : bool * bool) (input : Value.t) :
    Value.t * Schedule.leg list =
  let k = c.cs_kernel in
  (* 1. Java-side marshal, 2. JNI, 3. C-side decode *)
  let device_input =
    decode cfg.serializer input (encode cfg.serializer input)
  in
  (* timing profile also yields the output-producing loop's trip count *)
  let prof, bindings = launch c device_input in
  let rows = int_of_float prof.Gpusim.Profile.p_last_parfor_items in
  (* functional execution *)
  let result =
    if cfg.functional then
      Interp.call_function (Lazy.force c.cs_state) k.Kernel.k_name None
        [ device_input ]
    else zero_result ~rows k device_input
  in
  (* the return path re-encodes on the device side and decodes in Java *)
  let out_bytes = Marshal.wire_size cfg.serializer result in
  let result = decode cfg.serializer result (encode cfg.serializer result) in
  let bd, counters = Gpusim.Model.kernel_time_ex d prof bindings in
  let crossings, legs =
    device_legs cfg.serializer d ~elem_bytes:(elem_bytes device_input)
      ~in_bytes:(Marshal.wire_size cfg.serializer input) ~out_bytes
      ~kernel_s:bd.Gpusim.Model.bd_total_s crossing
  in
  let ph = Comm.zero () in
  List.iter (Comm.add ph) crossings;
  ph.Comm.kernel_s <- bd.Gpusim.Model.bd_total_s;
  Comm.add report.phases ph;
  Lime_support.Hooks.emit firing_hooks
    {
      fi_task = k.Kernel.k_name;
      fi_device = true;
      fi_phases = ph;
      fi_dev = Some d;
      fi_profile = Some prof;
      fi_breakdown = Some bd;
      fi_counters = Some counters;
      fi_bindings = bindings;
    };
  (result, legs)

(* ------------------------------------------------------------------ *)
(* Graph execution                                                     *)
(* ------------------------------------------------------------------ *)

(* Where each stage fires: the placement's per-task assignment when one is
   set (absent tasks stay on the host), else the global single-device
   config.  Records the outcome in the report. *)
let place (cfg : config) (report : report) (sg : stage) :
    Gpusim.Device.t option =
  let want =
    match cfg.placement with
    | None -> cfg.device
    | Some map -> Option.join (List.assoc_opt sg.sg_task map)
  in
  let on = if sg.sg_verdict = Kernel.Offloadable then want else None in
  (match on with
  | Some d ->
      report.offloaded_tasks <- report.offloaded_tasks @ [ sg.sg_task ];
      Log.debug (fun m ->
          m "offloading %s to %s:@.%s" sg.sg_task d.Gpusim.Device.name
            (Memopt.describe (Lazy.force sg.sg_compiled).cs_decisions))
  | None ->
      if want <> None then
        Log.debug (fun m ->
            m "task %s stays on host (%s)" sg.sg_task
              (Kernel.verdict_name sg.sg_verdict));
      report.host_tasks <- report.host_tasks @ [ sg.sg_task ]);
  report.placements <- report.placements @ [ (sg.sg_task, on) ];
  on

let run_stages (cfg : config) (st : Interp.state) (report : report)
    (stages : stage list) ~(iters : int) : unit =
  let stages = Array.of_list stages in
  (* an offloaded stage compiles once, before its first firing *)
  let placed =
    Array.map
      (fun sg ->
        Option.map
          (fun d -> (d, Lazy.force sg.sg_compiled))
          (place cfg report sg))
      stages
  in
  (* residency holds only under an explicit placement; the legacy
     single-device mode keeps the paper's accounting, where every device
     firing pays both directions *)
  let devices =
    Array.map
      (function
        | Some (d, _) when cfg.placement <> None -> Some d.Gpusim.Device.name
        | _ -> None)
      placed
  in
  let first_legs : Schedule.leg list list ref = ref [] in
  for iter = 1 to iters do
    report.firings <- report.firings + 1;
    let v = ref Value.VUnit in
    Array.iteri
      (fun k sg ->
        report.last_value <- !v;
        let result, legs =
          match placed.(k) with
          | Some (d, c) -> fire_device cfg report c d (transfers devices k) !v
          | None -> fire_host st report sg !v
        in
        v := result;
        if iter = 1 then first_legs := legs :: !first_legs)
      stages
  done;
  (* all firings are identical, so the overlap clock replays the first
     firing's legs [iters] times through the wavefront simulator *)
  report.overlapped_s <-
    report.overlapped_s
    +. Schedule.overlapped_makespan ~firings:iters (List.rev !first_legs)

(** Attach this engine to an interpreter state: Lime-level
    [graph.finish(n)] calls will execute through the engine and accumulate
    into the returned report. *)
let attach (cfg : config) (st : Interp.state) : report =
  let report = fresh_report () in
  st.Interp.finish_hook <-
    (fun st graph iters ->
      run_stages cfg st report (stages cfg st.Interp.md graph)
        ~iters:(Option.value iters ~default:1));
  report

(** Convenience: run a whole program's entry point under the engine. *)
let run_program (cfg : config) (md : Ir.modul) ~cls ~meth
    (args : Value.t list) : Value.t * report =
  let st = Interp.create md in
  let report = attach cfg st in
  let v = Interp.run st ~cls ~meth args in
  (v, report)
