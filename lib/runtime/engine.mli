(** Task-graph execution engine: the semantics of [task], [=>] and
    [finish].  Filters classified offloadable run "on the device" — real
    marshaling, functional kernel execution through the reference
    interpreter, and device-model timing; everything else runs as bytecode
    on the host.  Attaches to an interpreter state as its [finish] hook. *)

type config = {
  device : Gpusim.Device.t option;  (** [None] = run everything as bytecode *)
  opt_config : Lime_gpu.Memopt.config;
  functional : bool;
      (** execute offloaded kernels for real (validation) rather than
          producing a zero-filled result of the right shape *)
  serializer : Marshal.serializer;
  placement : (string * Gpusim.Device.t option) list option;
      (** per-task placement (task name → device, [None] = host).  When
          set it overrides [device] per stage; tasks absent from the list
          stay on the host, and adjacent stages sharing a device keep the
          value resident (no transfer charged on that edge).  [None] = the
          legacy single-device mode. *)
}

val default_config : config
(** GTX 580, all optimizations, functional execution, custom serializer,
    no multi-device placement. *)

type offloaded = {
  of_kernel : Lime_gpu.Kernel.kernel;
  of_decisions : Lime_gpu.Memopt.decision list;
  of_state : Lime_ir.Interp.state Lazy.t;
      (** the kernel loaded for functional execution, once per stage *)
  of_device : Gpusim.Device.t;  (** the device this stage fires on *)
}

type firing_info = {
  fi_task : string;
  fi_device : bool;
  fi_phases : Comm.phases;
  fi_dev : Gpusim.Device.t option;  (** the device a device firing ran on *)
  fi_profile : Gpusim.Profile.t option;  (** analytic launch profile *)
  fi_breakdown : Gpusim.Model.breakdown option;  (** kernel-time breakdown *)
  fi_counters : Gpusim.Counters.t option;
      (** simulated hardware counters for the launch *)
  fi_bindings : Gpusim.Model.array_binding list;
      (** the launch's array bindings (empty for host firings) *)
}
(** Everything observable about one task firing.  [fi_dev], [fi_profile],
    [fi_breakdown] and [fi_counters] are [Some] exactly for device
    firings. *)

val firing_hooks : firing_info Lime_support.Hooks.t
(** Firing observers, called once per task firing.  The [lime.service]
    metrics layer uses key ["metrics"], the tracer ["trace"]. *)

type report = {
  mutable firings : int;
  mutable offloaded_tasks : string list;
  mutable host_tasks : string list;
  mutable placements : (string * Gpusim.Device.t option) list;
      (** per-task placement ground truth, in pipeline order: the device a
          task actually fired on, [None] for host tasks *)
  phases : Comm.phases;  (** accumulated across firings *)
  mutable last_value : Lime_ir.Value.t;
      (** the value that reached the final (sink) task *)
  mutable overlapped_s : float;
      (** simulated wall-clock of the firings with double-buffered overlap
          ({!Schedule.overlapped_makespan}); [Comm.total phases] is the
          serial clock *)
}

val fresh_report : unit -> report

val output_shape :
  ?rows:int -> Lime_gpu.Kernel.kernel -> Lime_ir.Value.t -> int array option
(** Shape of the kernel result; dynamic dimensions take [rows] (the trip
    count of the output-producing parallel loop). *)

val shapes_of_args :
  Lime_gpu.Kernel.kernel ->
  Lime_ir.Value.t list ->
  (string * int array) list * (string * float) list

val array_bindings :
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.decision list ->
  Lime_ir.Value.t list ->
  int array option ->
  Gpusim.Model.array_binding list

type prepared =
  | P_host of Lime_ir.Value.task_node
  | P_device of Lime_ir.Value.task_node * offloaded

val prepare :
  config ->
  Lime_ir.Ir.modul ->
  report ->
  Lime_ir.Value.task_node list ->
  prepared list
(** Classify and compile each stage of a graph for its placement,
    recording the outcome in the report ([offloaded_tasks]/[host_tasks]/
    [placements]).  Exposed so schedulers can decide a placement from the
    graph at [finish] time and then drive execution themselves. *)

val run_prepared :
  config -> Lime_ir.Interp.state -> report -> prepared list -> iters:int -> unit
(** Fire a prepared pipeline [iters] times, accumulating into the
    report (phases, sink value, overlap clock). *)

val attach : config -> Lime_ir.Interp.state -> report
(** Install the engine as the interpreter's [finish] hook; Lime-level
    [graph.finish(n)] calls then execute through the engine and accumulate
    into the returned report. *)

val run_program :
  config ->
  Lime_ir.Ir.modul ->
  cls:string ->
  meth:string ->
  Lime_ir.Value.t list ->
  Lime_ir.Value.t * report
(** Create an interpreter, attach the engine, and call [cls.meth]. *)
