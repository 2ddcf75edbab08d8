(** Device models for the platforms of Table 2.

    Each platform is modelled by the architectural parameters that explain
    the paper's results: SM/core counts, FP throughput, memory spaces with
    banks and caches, and the PCIe link.  See DESIGN.md §2 for the
    substitution rationale. *)

type kind = Gpu | Cpu

type t = {
  name : string;
  kind : kind;
  sms : int;  (** streaming multiprocessors (GPU) or cores (CPU) *)
  fp32_lanes : int;  (** single-precision FP units per SM/core *)
  fp64_ratio : float;  (** double throughput / single throughput *)
  clock_ghz : float;
  warp : int;  (** SIMT width (GPU) or SIMD float lanes (CPU) *)
  threads_per_core : int;  (** hyperthreading factor (CPU) *)
  alu_cost : float;  (** issue slots per lane per op *)
  div_cost : float;
  sqrt_cost : float;
  trans_cost : float;  (** sin/cos/exp/log/pow via SFU or native_ *)
  local_banks : int;
  local_cost : float;
  const_cost : float;
  tex_cost : float;
  tex_hit_rate : float;
  global_bw_gbs : float;
  global_lat_cycles : float;
  inflight_warps : int;
      (** warps an SM can keep in flight to hide memory latency *)
  has_l1 : bool;
  has_l2 : bool;
  l2_bytes : int;  (** unified L2 capacity (0 when absent) *)
  cache_hit_shared : float;
      (** hit rate for data re-read across threads; 0 on cache-less GPUs *)
  pcie_gbs : float;
  launch_overhead_us : float;
  info_const_mem : string;
  info_local_mem : string;
  info_l1 : string;
  info_l2 : string;
  info_l3 : string;
}

val gtx8800 : t
(** NVidia GeForce GTX 8800 (G80): cache-less, 16 banks — placement
    matters up to ~10x here (Fig 8a). *)

val gtx580 : t
(** NVidia GeForce GTX 580 (Fermi): L1 + 768KB L2 flatten Fig 8b. *)

val hd5970 : t
(** AMD Radeon HD 5970 (Cypress x2): VLIW5, wavefront 64. *)

val core_i7 : t
(** Intel Core i7-990X, also the multicore OpenCL target of Fig 7a. *)

val all : t list

val peak_flops : t -> float
(** Peak single-precision throughput, operations per second. *)

(** Cost weights for JIT-compiled bytecode on one i7 core — the Fig 7
    baseline ("Lime compiled to bytecode"). *)
type jvm_model = {
  jvm_clock_ghz : float;
  jvm_alu : float;
  jvm_div : float;
  jvm_sqrt : float;
  jvm_trans : float;  (** strict double transcendental *)
  jvm_mem : float;  (** array element access incl. bounds check *)
  jvm_field : float;
  jvm_branch : float;
  jvm_call : float;
  jvm_alloc_per_byte : float;
}

val jvm_default : jvm_model

val jvm_time : Lime_ir.Interp.counters -> float
(** Seconds for an operation-count profile executed as bytecode under
    {!jvm_default}. *)
