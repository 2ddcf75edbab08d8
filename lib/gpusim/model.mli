(** Device timing model: converts a kernel {!Profile.t} plus memory
    placements into an execution-time estimate for a {!Device.t}.
    Throughput-based (roofline) with additive exposed-latency penalties —
    see the module implementation header for the modelling assumptions. *)

type breakdown = {
  bd_compute_s : float;
  bd_global_s : float;  (** bandwidth + exposed latency *)
  bd_local_s : float;
  bd_constant_s : float;
  bd_image_s : float;
  bd_launch_s : float;
  bd_total_s : float;
}

val pp_breakdown : Format.formatter -> breakdown -> unit

(** What the memory model needs to know about one array argument. *)
type array_binding = {
  ab_name : string;
  ab_elem_bytes : int;
  ab_total_bytes : int;
  ab_row_len : int;  (** innermost dimension length (1 if rank 1) *)
  ab_placement : Lime_ir.Ir.placement;
}

val kernel_time : Device.t -> Profile.t -> array_binding list -> breakdown
(** The timing breakdown of one launch: the pricing pass of
    {!kernel_time_ex}, without building its counters. *)

val kernel_time_ex :
  Device.t -> Profile.t -> array_binding list -> breakdown * Counters.t
(** Like {!kernel_time}, but also returns the simulated hardware counters
    accumulated by the *same pass*, so counter × device-cost reconstructs
    each breakdown component exactly (see {!Counters}). *)

val launch_attrs :
  Device.t -> Profile.t -> array_binding list -> (string * string) list
(** Key/value description of one launch for trace attachments: device
    name, work-group geometry, warps, an occupancy estimate, the worst
    local-memory bank-conflict degree (gcd of row stride and bank count,
    the factor the timing model charges), double fraction, approx flag. *)

val binding_of_shape :
  name:string ->
  elem:Lime_ir.Ir.scalar ->
  shape:int array ->
  Lime_ir.Ir.placement ->
  array_binding

val jvm_time_profile : Profile.t -> float
(** The "Lime compiled to bytecode" time of the same work under
    {!Device.jvm_default} — the Fig 7 baseline. *)
