(** Automated exploration of the memory mapping (paper §4.2.1): time every
    Fig 8 configuration of a kernel on a device model and rank them.
    Driven by `limec --sweep` and `examples/autotune.exe`. *)

type entry = {
  at_name : string;  (** configuration name, e.g. ["Local+Conflicts removed"] *)
  at_config : Lime_gpu.Memopt.config;
  at_time_s : float;
  at_breakdown : Model.breakdown;
  at_counters : Counters.t;  (** the launch's simulated hardware counters *)
}

val bindings_of :
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.decision list ->
  shapes:(string * int array) list ->
  out_shape:int array option ->
  Model.array_binding list

val profile :
  ?hoist_invariant:bool ->
  ?affine_lanes:bool ->
  ?thread_vars:(string, unit) Hashtbl.t ->
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.array_info list ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  Profile.walk
(** [profile k infos ~shapes ~scalars] walks the launches of [k], whose
    {!Lime_gpu.Memopt.analyze} is [infos], once for every placement
    table: a {!Profile.walk} whose private roots are the arrays [infos]
    allocates in the parallel loop, the only ones
    {!Lime_gpu.Memopt.decide} places in private memory.  The two flags
    and the thread-dependence table are {!Profile.profile}'s. *)

val bind :
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.decision list ->
  shapes:(string * int array) list ->
  Profile.walk ->
  Profile.t * Model.array_binding list
(** [bind k decisions ~shapes w] is the launch of [k] under [decisions],
    from [k]'s walk [w]: the profile under the decisions' private arrays
    ({!Profile.under}) and the bindings of every array the launch
    touches — the parameters from [shapes], the kernel-local arrays from
    their static shapes, the result sized by the profile's last parallel
    loop's trip count.  Equal, bit for bit, to {!launch} with the same
    flags, shapes and scalars. *)

val launch :
  ?hoist_invariant:bool ->
  ?affine_lanes:bool ->
  ?thread_vars:(string, unit) Hashtbl.t ->
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.decision list ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  Profile.t * Model.array_binding list
(** The one launch pricer: the launch's {!Profile.profile} and its
    bindings.  Price the pair with {!Model.kernel_time_ex}. *)

val time_config_ex :
  Device.t ->
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.config ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  Model.breakdown * Counters.t
(** Time one configuration: the launch's breakdown and its simulated
    hardware counters (see {!Model.kernel_time_ex}). *)

val entry :
  string -> Lime_gpu.Memopt.config -> Model.breakdown * Counters.t -> entry
(** [entry name config (time_config_ex ...)]: one configuration's row. *)

val sweep :
  Device.t ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  entry list
(** All eight configurations, fastest first.  The kernel is analyzed and
    walked once ({!Lime_gpu.Memopt.analyze}, its thread-dependence table
    and {!profile}); each configuration decides its placements and
    {!bind}s its launch. *)

val sweep_with :
  map:
    ((string * Lime_gpu.Memopt.config -> entry) ->
    (string * Lime_gpu.Memopt.config) list ->
    entry list) ->
  Device.t ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  entry list
(** {!sweep} with the per-configuration pricing run by [map], which must
    preserve order ([List.map] is {!sweep}; the compile service passes its
    domain pool's map). *)

val describe : entry list -> string
