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

type offloaded = {
  of_kernel : Kernel.kernel;
  of_decisions : Memopt.decision list;
  of_module : Ir.modul;  (** kernel wrapped for functional execution *)
  of_device : Gpusim.Device.t;  (** the device this stage fires on *)
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
(* Device-side execution of one firing                                 *)
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

let array_bindings (k : Kernel.kernel) (decisions : Memopt.decision list)
    (args : Value.t list) (result_shape : int array option) :
    Gpusim.Model.array_binding list =
  let param_bindings =
    List.filter_map
      (fun ((p, _), v) ->
        match v with
        | Value.VArr a ->
            Some
              (Gpusim.Model.binding_of_shape ~name:p ~elem:a.Value.elem
                 ~shape:a.Value.shape
                 (Memopt.placement_for decisions p))
        | _ -> None)
      (List.combine k.Kernel.k_params args)
  in
  (* bindings for kernel-local arrays with known placements (e.g. the map
     output) *)
  let local_bindings =
    List.filter_map
      (fun (d : Memopt.decision) ->
        if List.exists (fun (p, _) -> p = d.Memopt.d_array) k.Kernel.k_params
        then None
        else
          let info = d.Memopt.d_info in
          let shape =
            match (Ir.static_elem_count info.Memopt.ai_ty, result_shape) with
            | Some _, _ ->
                Array.of_list
                  (List.map
                     (function Ir.DFixed n -> n | Ir.DDyn -> 0)
                     info.Memopt.ai_ty.Ir.dims)
            | None, Some rs -> rs
            | None, None -> [| 0 |]
          in
          Some
            (Gpusim.Model.binding_of_shape ~name:d.Memopt.d_array
               ~elem:info.Memopt.ai_ty.Ir.elem ~shape d.Memopt.d_placement))
      decisions
  in
  param_bindings @ local_bindings

(** Simulate (and optionally functionally execute) one kernel firing.
    [transfer_in]/[transfer_out] say whether the input (output) actually
    crosses the host↔device boundary; an edge whose both ends share this
    stage's device keeps the value resident and charges nothing.  Returns
    the result and the firing's resource legs for the overlap clock. *)
let fire_device (cfg : config) (report : report) (off : offloaded)
    ?(transfer_in = true) ?(transfer_out = true) (input : Value.t) :
    Value.t * Schedule.leg list =
  let d = off.of_device in
  let k = off.of_kernel in
  (* 1. Java-side marshal, 2. JNI, 3. C-side decode.  The Direct
     serializer emits device layout, skipping the wire header and the
     C-side conversion (§5.3 future work). *)
  let encoded, device_input =
    match cfg.serializer with
    | Marshal.Custom ->
        let e = Marshal.encode input in
        (e, Marshal.decode (Bytes.copy e))
    | Marshal.Generic ->
        let e = Marshal.encode_generic input in
        (e, Marshal.decode (Bytes.copy e))
    | Marshal.Direct -> (
        let e = Marshal.encode_direct input in
        match input with
        | Value.VArr a ->
            (e, Marshal.decode_direct ~elem:a.Value.elem ~shape:a.Value.shape e)
        | v -> (e, v))
  in
  let in_bytes = Bytes.length encoded in
  let args = [ device_input ] in
  (* timing profile also yields the output-producing loop's trip count *)
  let shapes, scalars = shapes_of_args k args in
  let prof = Gpusim.Profile.profile k off.of_decisions ~shapes ~scalars in
  let rows = int_of_float prof.Gpusim.Profile.p_last_parfor_items in
  (* functional execution *)
  let result =
    if cfg.functional then
      let st = Interp.create off.of_module in
      Interp.call_function st k.Kernel.k_name None args
    else zero_result ~rows k device_input
  in
  (* the return path re-encodes on the device side and decodes in Java *)
  let out_encoded, result =
    match cfg.serializer with
    | Marshal.Custom | Marshal.Generic ->
        let e = Marshal.encode result in
        (e, Marshal.decode e)
    | Marshal.Direct -> (
        let e = Marshal.encode_direct result in
        match result with
        | Value.VArr a ->
            (e, Marshal.decode_direct ~elem:a.Value.elem ~shape:a.Value.shape e)
        | v -> (e, v))
  in
  let out_bytes = Bytes.length out_encoded in
  let bindings =
    array_bindings k off.of_decisions args (output_shape ~rows k device_input)
  in
  let bd, counters = Gpusim.Model.kernel_time_ex d prof bindings in
  let elem_bytes =
    match device_input with
    | Value.VArr a -> Ir.scalar_size_bytes a.Value.elem
    | _ -> 4
  in
  let transfer bytes =
    Comm.transfer_phases d ~serializer:cfg.serializer ~elem_bytes ~bytes ()
  in
  let ph_in = if transfer_in then transfer in_bytes else Comm.zero () in
  let ph_out = if transfer_out then transfer out_bytes else Comm.zero () in
  let ph = Comm.zero () in
  Comm.add ph ph_in;
  Comm.add ph ph_out;
  ph.Comm.kernel_s <- bd.Gpusim.Model.bd_total_s;
  Comm.add report.phases ph;
  (* the firing's legs in execution order, for the overlap clock: host-side
     marshal work on the host thread, PCIe on this device's link, the
     kernel on this device *)
  let host_leg p = Comm.total p -. p.Comm.pcie_s in
  let link = "link:" ^ d.Gpusim.Device.name
  and dev = "dev:" ^ d.Gpusim.Device.name in
  let legs =
    (if transfer_in then
       [
         { Schedule.lg_resource = "host"; lg_seconds = host_leg ph_in };
         { Schedule.lg_resource = link; lg_seconds = ph_in.Comm.pcie_s };
       ]
     else [])
    @ [ { Schedule.lg_resource = dev; lg_seconds = ph.Comm.kernel_s } ]
    @
    if transfer_out then
      [
        { Schedule.lg_resource = link; lg_seconds = ph_out.Comm.pcie_s };
        { Schedule.lg_resource = "host"; lg_seconds = host_leg ph_out };
      ]
    else []
  in
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
(* Host-side execution of one firing                                   *)
(* ------------------------------------------------------------------ *)

let snapshot (c : Interp.counters) : Interp.counters =
  { c with Interp.alu = c.Interp.alu }

let counters_delta (before : Interp.counters) (after : Interp.counters) :
    Interp.counters =
  {
    Interp.alu = after.Interp.alu - before.Interp.alu;
    divs = after.Interp.divs - before.Interp.divs;
    sqrts = after.Interp.sqrts - before.Interp.sqrts;
    transcendentals = after.Interp.transcendentals - before.Interp.transcendentals;
    mem_reads = after.Interp.mem_reads - before.Interp.mem_reads;
    mem_writes = after.Interp.mem_writes - before.Interp.mem_writes;
    bounds_checks = after.Interp.bounds_checks - before.Interp.bounds_checks;
    field_accesses = after.Interp.field_accesses - before.Interp.field_accesses;
    branches = after.Interp.branches - before.Interp.branches;
    calls = after.Interp.calls - before.Interp.calls;
    alloc_bytes = after.Interp.alloc_bytes - before.Interp.alloc_bytes;
    double_ops = after.Interp.double_ops - before.Interp.double_ops;
  }

let fire_host (st : Interp.state) (report : report)
    (node : Value.task_node) (input : Value.t) : Value.t * Schedule.leg list
    =
  let td = node.Value.tk_desc in
  let fname = Ir.qualify td.Ir.td_class td.Ir.td_method in
  let args = match td.Ir.td_in with Ir.TUnit -> [] | _ -> [ input ] in
  let before = snapshot st.Interp.counters in
  let result =
    Interp.call_function st fname node.Value.tk_instance args
  in
  let delta = counters_delta before st.Interp.counters in
  let host_s = Gpusim.Device.jvm_time delta in
  report.phases.Comm.host_s <- report.phases.Comm.host_s +. host_s;
  let ph = Comm.zero () in
  ph.Comm.host_s <- host_s;
  Lime_support.Hooks.emit firing_hooks
    {
      fi_task = fname;
      fi_device = false;
      fi_phases = ph;
      fi_dev = None;
      fi_profile = None;
      fi_breakdown = None;
      fi_counters = None;
      fi_bindings = [];
    };
  (result, [ { Schedule.lg_resource = "host"; lg_seconds = host_s } ])

(* ------------------------------------------------------------------ *)
(* Graph execution                                                     *)
(* ------------------------------------------------------------------ *)

type prepared =
  | P_host of Value.task_node
  | P_device of Value.task_node * offloaded

let prepare (cfg : config) (md : Ir.modul) (report : report)
    (graph : Value.task_node list) : prepared list =
  List.map
    (fun node ->
      let td = node.Value.tk_desc in
      let name = Ir.qualify td.Ir.td_class td.Ir.td_method in
      (* the device this stage wants: the placement's per-task assignment
         when one is set (absent tasks stay on the host), else the global
         single-device config *)
      let want =
        match cfg.placement with
        | None -> cfg.device
        | Some map -> Option.join (List.assoc_opt name map)
      in
      match (want, Kernel.classify md td) with
      | Some d, Kernel.Offloadable ->
          let kernel = Kernel.extract md ~worker:name in
          let decisions = Memopt.optimize cfg.opt_config kernel in
          report.offloaded_tasks <- report.offloaded_tasks @ [ name ];
          report.placements <- report.placements @ [ (name, Some d) ];
          Log.debug (fun m ->
              m "offloading %s to %s:@.%s" name d.Gpusim.Device.name
                (Memopt.describe decisions));
          P_device
            ( node,
              {
                of_kernel = kernel;
                of_decisions = decisions;
                of_module = Kernel.to_module kernel;
                of_device = d;
              } )
      | _, verdict ->
          if want <> None then
            Log.debug (fun m ->
                m "task %s stays on host (%s)" name
                  (Kernel.verdict_name verdict));
          report.host_tasks <- report.host_tasks @ [ name ];
          report.placements <- report.placements @ [ (name, None) ];
          P_host node)
    graph

let run_prepared (cfg : config) (st : Interp.state) (report : report)
    (pipeline : prepared list) ~(iters : int) : unit =
  (* Residency: under an explicit placement, an edge whose both ends sit on
     the same device skips its transfer; the legacy single-device mode
     keeps the paper's accounting (every device firing pays both
     directions). *)
  let dev_of = function
    | P_host _ -> None
    | P_device (_, off) -> Some off.of_device.Gpusim.Device.name
  in
  let stages = Array.of_list pipeline in
  let resident k =
    cfg.placement <> None
    && k >= 0
    && k < Array.length stages
    && dev_of stages.(k) <> None
  in
  let same_dev j k =
    resident j && resident k && dev_of stages.(j) = dev_of stages.(k)
  in
  let first_legs : Schedule.leg list list ref = ref [] in
  for iter = 1 to iters do
    report.firings <- report.firings + 1;
    let v = ref Value.VUnit in
    Array.iteri
      (fun k p ->
        let result, legs =
          match p with
          | P_host node ->
              report.last_value <- !v;
              fire_host st report node !v
          | P_device (_, off) ->
              report.last_value <- !v;
              fire_device cfg report off
                ~transfer_in:(not (same_dev (k - 1) k))
                ~transfer_out:(not (same_dev k (k + 1)))
                !v
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
      let pipeline = prepare cfg st.Interp.md report graph in
      run_prepared cfg st report pipeline ~iters:(Option.value iters ~default:1));
  report

(** Convenience: run a whole program's entry point under the engine. *)
let run_program (cfg : config) (md : Ir.modul) ~cls ~meth
    (args : Value.t list) : Value.t * report =
  let st = Interp.create md in
  let report = attach cfg st in
  let v = Interp.run st ~cls ~meth args in
  (v, report)
