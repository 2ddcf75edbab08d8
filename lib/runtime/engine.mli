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
          stay on the host, and an edge whose two ends fire on the same
          device keeps the value resident ({!transfers}).  [None] = the
          legacy single-device mode, where every device firing pays both
          directions. *)
}

val default_config : config
(** GTX 580, all optimizations, functional execution, custom serializer,
    no multi-device placement. *)

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

(** {2 The firing model}

    What one firing costs and which serialized resources it occupies.
    A crossing carries {!Marshal.wire_size} bytes of the value under the
    run's serializer.
    The engine fires with these, and the placement cost model in
    [lib/sched] prices a candidate with the same functions, so a modeled
    placement and the engine's [overlapped_s] agree exactly. *)

val elem_bytes : Lime_ir.Value.t -> int
(** Element width of an array input on the wire ({!Marshal.elem_width}; 4
    for anything else): the Java-side marshal is priced per element. *)

val transfers : string option array -> int -> bool * bool
(** The residency rule: given the device each stage fires on ([None] for
    the host), whether stage [k]'s input and output cross the host↔device
    boundary.  An edge whose two ends fire on the same device keeps the
    value resident. *)

val host_legs : float -> Schedule.leg list
(** The one leg of a host firing of the given bytecode seconds. *)

val device_legs :
  Marshal.serializer ->
  Gpusim.Device.t ->
  elem_bytes:int ->
  in_bytes:int ->
  out_bytes:int ->
  kernel_s:float ->
  bool * bool ->
  Comm.phases list * Schedule.leg list
(** One device firing: the phases of each crossing it pays (upload, then
    download, as {!transfers} says) and its resource legs in execution
    order ("host", "link:<dev>", "dev:<dev>"). *)

(** {2 Stages} *)

type compiled
(** An offloadable stage's kernel, extracted and memory-optimized. *)

type stage = {
  sg_node : Lime_ir.Value.task_node;
  sg_task : string;  (** qualified worker name *)
  sg_verdict : Lime_gpu.Kernel.offload_verdict;
  sg_compiled : compiled Lazy.t;
      (** compiled on first use: only an offloadable stage placed on a
          device (or probed for placement) ever forces it *)
}

val stages :
  config -> Lime_ir.Ir.modul -> Lime_ir.Value.task_node list -> stage list
(** Classify each task of a graph; kernels compile lazily under
    [config.opt_config].  Schedulers call this at [finish] time, price the
    stages, and hand the same list to {!run_stages}, so a kernel compiles
    once per [finish]. *)

val launch :
  compiled ->
  Lime_ir.Value.t ->
  Gpusim.Profile.t * Gpusim.Model.array_binding list
(** The device-independent launch profile and array bindings of one
    firing on the given input. *)

val host_firing :
  Lime_ir.Interp.state -> stage -> Lime_ir.Value.t -> Lime_ir.Value.t * float
(** Run the stage's worker once as bytecode: its result and its host
    seconds (the interpreter's counter delta priced by the JVM model). *)

val run_stages :
  config -> Lime_ir.Interp.state -> report -> stage list -> iters:int -> unit
(** Place every stage (recording the outcome in the report's
    [offloaded_tasks]/[host_tasks]/[placements]) and fire the pipeline
    [iters] times, accumulating phases, the sink value and the overlap
    clock. *)

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
