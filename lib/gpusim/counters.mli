(** Simulated per-launch hardware counters.

    The quantities a real GPGPU profiler reports — global-memory
    transactions split coalesced/uncoalesced, bytes moved per memory
    space, cache hits and misses, local-memory bank-conflict replays,
    constant broadcast vs. serialized reads, texture fetches, warps and
    occupancy — derived from the same inputs as the timing model
    ({!Profile.t}, the array bindings, {!Device.t}) and accumulated by the
    *same pass* that computes {!Model.kernel_time}, so every charged
    second of the breakdown is attributable to counter × cost.  The raw
    counts are floats because they are analytic expectations (loop trip
    products), not sampled events.

    {!Model.kernel_time_ex} is the only constructor; this module owns the
    record, its derived quantities (achieved bandwidth and FLOP/s,
    arithmetic intensity), the roofline classification, aggregation, and
    the terminal report. *)

(** Which resource bounds the launch, in the roofline sense: the model's
    kernel time is [max(compute, memory) + exposed latency + launch
    overhead], so a launch is latency-bound when the additive overheads
    exceed the overlapped throughput term, otherwise whichever side of the
    [max] won. *)
type roofline = Compute_bound | Memory_bound | Latency_bound

type t = {
  (* identity and peaks *)
  ct_device : string;
  ct_peak_bw : float;  (** device-memory bandwidth, bytes/s *)
  ct_peak_flops : float;  (** peak single-precision ops/s *)
  (* launch geometry *)
  ct_items : float;
  ct_work_groups : float;
  ct_warps : float;  (** warps (wavefronts) launched *)
  ct_occupancy : float;  (** in-flight warp demand vs. the device pool, (0,1] *)
  (* compute *)
  ct_flops : float;  (** floating-point operations *)
  ct_issue_cycles : float;  (** weighted issue slots, incl. the fp64 scale *)
  ct_access_slots : float;  (** non-private access count (the CPU path charges these as issue slots) *)
  ct_reduce_elems : float;
  (* global memory *)
  ct_gtx_total : float;  (** global-memory transactions (warp-granularity segments) *)
  ct_gtx_coalesced : float;
  ct_gtx_uncoalesced : float;  (** transactions issued by warp accesses that replayed (waste > 1) *)
  ct_bytes_global : float;  (** bytes over the device-memory bus (incl. local staging and texture misses) *)
  ct_gslot_cycles : float;  (** on-chip slot cycles charged for cache-resident global accesses *)
  ct_lat_tx : float;  (** latency-exposed transactions (global + texture misses) *)
  ct_cache_hits : float;  (** L1/L2 (or shared-read path) hits; 0 on cache-less devices *)
  ct_cache_misses : float;
  (* local memory *)
  ct_local_accesses : float;
  ct_bank_replays : float;  (** extra serialized passes: count × (conflict degree − 1) *)
  ct_bytes_local : float;
  (* constant memory *)
  ct_const_broadcast : float;
  ct_const_serialized : float;  (** divergent reads that serialize the warp *)
  ct_bytes_constant : float;
  (* image / texture *)
  ct_tex_fetches : float;
  ct_tex_hits : float;
  ct_tex_misses : float;
  ct_bytes_image : float;  (** texel bytes sampled *)
  (* the seconds the timing model charged, by space — reconstructible
     from the raw counts above with the device's cost parameters *)
  ct_compute_s : float;
  ct_global_s : float;  (** bus bytes + on-chip slot cycles, excl. latency *)
  ct_local_s : float;
  ct_constant_s : float;
  ct_image_s : float;
  ct_latency_s : float;
  ct_launch_s : float;
  ct_reduce_s : float;
  ct_total_s : float;
}

(** {1 Derived quantities} *)

val mem_s : t -> float
(** The memory side of the roofline [max]: global + local + constant +
    image seconds. *)

val arithmetic_intensity : t -> float
(** FLOPs per byte of device-memory traffic; [infinity] when the launch
    moved no global bytes. *)

val classify : t -> roofline

val limiter : t -> string
(** The single largest time contributor, by name: ["compute"],
    ["global-memory"], ["local-memory"], ["constant-memory"], ["image"],
    ["latency"] or ["launch-overhead"]. *)

val roofline_name : roofline -> string
(** ["compute-bound"], ["memory-bound"], ["latency-bound"]. *)

val add : t -> t -> t
(** Aggregate two launches: counts, bytes and seconds sum; occupancy is
    the warp-weighted mean; device/peaks are kept from the first operand
    (["<mixed>"] when the names differ). *)

val report : t -> string
(** Aligned per-launch counter table plus a roofline summary — the
    counters-side companion of {!Profile.report}. *)

val span_attrs : t -> (string * string) list
(** Compact key/value rendering for trace-span attachment. *)
