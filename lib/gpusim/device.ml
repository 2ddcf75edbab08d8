(** Device models for the platforms of Table 2.

    The paper evaluates on four platforms; since this environment has no GPU
    (see DESIGN.md §2), each platform is modelled by the architectural
    parameters that explain the paper's results: SM/core counts, FP
    throughput (single and double), the memory spaces with their latencies
    and bank structure, caches (the GTX580's L1/L2 are what flatten Fig 8b),
    and the PCIe link used by the communication cost model. *)

type kind = Gpu | Cpu

type t = {
  name : string;
  kind : kind;
  (* compute *)
  sms : int;  (** streaming multiprocessors (GPU) or cores (CPU) *)
  fp32_lanes : int;  (** single-precision FP units per SM/core *)
  fp64_ratio : float;  (** double throughput / single throughput *)
  clock_ghz : float;
  warp : int;  (** SIMT width (GPU) or SIMD float lanes (CPU) *)
  threads_per_core : int;  (** hyperthreading factor (CPU) *)
  (* per-op costs, in issue slots per lane *)
  alu_cost : float;
  div_cost : float;
  sqrt_cost : float;
  trans_cost : float;  (** sin/cos/exp/log/pow via SFU or native_ *)
  (* memory system *)
  local_banks : int;
  local_cost : float;  (** cycles per conflict-free local access *)
  const_cost : float;  (** cycles per broadcast constant access *)
  tex_cost : float;  (** cycles per texture-cache hit *)
  tex_hit_rate : float;  (** for 2D-local access patterns *)
  global_bw_gbs : float;  (** device memory bandwidth *)
  global_lat_cycles : float;
  inflight_warps : int;
      (** warps an SM can keep in flight to hide memory latency *)
  has_l1 : bool;
  has_l2 : bool;
  l2_bytes : int;  (** unified L2 capacity (0 when absent) *)
  cache_hit_shared : float;
      (** L1/L2 hit rate for data re-read across threads (stream/broadcast
          patterns); 0 on cache-less GPUs *)
  (* host link *)
  pcie_gbs : float;
  launch_overhead_us : float;
  (* Table 2 informational fields *)
  info_const_mem : string;
  info_local_mem : string;
  info_l1 : string;
  info_l2 : string;
  info_l3 : string;
}

(* ------------------------------------------------------------------ *)
(* The four platforms of Table 2                                       *)
(* ------------------------------------------------------------------ *)

(** NVidia GeForce GTX 8800 (2006, G80): 16 SMs x 8 single-precision units,
    16 local banks, no double precision, no general-purpose caches — only
    the texture cache.  Uncoalesced or re-read global traffic is punishing,
    which is why memory placement matters up to 10x here (Fig 8a). *)
let gtx8800 =
  {
    name = "NVidia GeForce GTX 8800";
    kind = Gpu;
    sms = 16;
    fp32_lanes = 8;
    fp64_ratio = 0.1;  (* no fp64 hardware: software emulation *)
    clock_ghz = 1.35;
    warp = 32;
    threads_per_core = 1;
    alu_cost = 1.0;
    div_cost = 12.0;
    sqrt_cost = 16.0;
    trans_cost = 40.0;
    local_banks = 16;
    local_cost = 1.0;
    const_cost = 1.0;
    tex_cost = 2.0;
    tex_hit_rate = 0.90;
    global_bw_gbs = 86.4;
    inflight_warps = 16;
    global_lat_cycles = 500.0;
    has_l1 = false;
    has_l2 = false;
    cache_hit_shared = 0.0;
    l2_bytes = 0;
    pcie_gbs = 3.0;
    launch_overhead_us = 12.0;
    info_const_mem = "64KB";
    info_local_mem = "16x16KB";
    info_l1 = "-";
    info_l2 = "-";
    info_l3 = "-";
  }

(** NVidia GeForce GTX 580 (Fermi): 16 SMs x 32 single (16 double) units,
    configurable L1 plus a 768KB L2.  The caches soak up re-read global
    traffic, so performance is "less sensitive to memory optimizations"
    (Fig 8b) — modelled by [cache_hit_shared]. *)
let gtx580 =
  {
    name = "NVidia GeForce GTX 580";
    kind = Gpu;
    sms = 16;
    fp32_lanes = 32;
    fp64_ratio = 0.5;
    clock_ghz = 1.544;
    warp = 32;
    threads_per_core = 1;
    alu_cost = 1.0;
    div_cost = 8.0;
    sqrt_cost = 8.0;
    trans_cost = 24.0;
    local_banks = 32;
    local_cost = 1.0;
    const_cost = 1.0;
    tex_cost = 2.0;
    tex_hit_rate = 0.90;
    global_bw_gbs = 192.4;
    inflight_warps = 48;
    global_lat_cycles = 400.0;
    has_l1 = true;
    has_l2 = true;
    cache_hit_shared = 0.93;
    l2_bytes = 786432;
    pcie_gbs = 5.5;
    launch_overhead_us = 8.0;
    info_const_mem = "64KB";
    info_local_mem = "16x48KB";
    info_l1 = "16x16KB";
    info_l2 = "768KB";
    info_l3 = "-";
  }

(** AMD Radeon HD 5970 (Cypress x2): 20 SIMD engines x 80 single-precision
    lanes (VLIW5), strong raw throughput but VLIW packing inefficiency;
    texture cache but no general L1/L2 for compute. *)
let hd5970 =
  {
    name = "AMD Radeon HD 5970";
    kind = Gpu;
    sms = 20;
    fp32_lanes = 80;
    fp64_ratio = 0.67;  (* paper measures doubles ~1.5x slower *)
    clock_ghz = 0.725;
    warp = 64;  (* wavefront *)
    threads_per_core = 1;
    alu_cost = 2.2;  (* VLIW5 packing efficiency ~45% on scalar-ish code *)
    div_cost = 12.0;
    sqrt_cost = 14.0;
    trans_cost = 32.0;
    local_banks = 32;
    local_cost = 1.0;
    const_cost = 1.0;
    tex_cost = 2.0;
    tex_hit_rate = 0.88;
    global_bw_gbs = 256.0;
    inflight_warps = 24;
    global_lat_cycles = 500.0;
    has_l1 = false;
    has_l2 = false;
    cache_hit_shared = 0.35;  (* read-only texture path caches some reuse *)
    l2_bytes = 0;
    pcie_gbs = 5.0;
    launch_overhead_us = 10.0;
    info_const_mem = "64KB";
    info_local_mem = "20x32KB";
    info_l1 = "-";
    info_l2 = "-";
    info_l3 = "-";
  }

(** Intel Core i7-990X: 6 cores x 4-wide SSE, hyperthreaded, large caches.
    Used both as the multicore OpenCL target (Fig 7a) and, with
    [threads = 1], to model the single-core OpenCL run. *)
let core_i7 =
  {
    name = "Intel Core i7-990X";
    kind = Cpu;
    sms = 6;
    fp32_lanes = 4;  (* SSE single-precision lanes *)
    fp64_ratio = 0.5;
    clock_ghz = 3.46;
    warp = 4;
    threads_per_core = 2;
    alu_cost = 1.0;
    div_cost = 7.0;
    sqrt_cost = 7.0;
    trans_cost = 15.0;
    local_banks = 1;
    local_cost = 1.0;  (* local memory is just cached RAM on a CPU *)
    const_cost = 1.0;
    tex_cost = 1.0;
    tex_hit_rate = 1.0;
    global_bw_gbs = 25.6;
    inflight_warps = 64;
    global_lat_cycles = 200.0;
    has_l1 = true;
    has_l2 = true;
    cache_hit_shared = 0.98;
    l2_bytes = 12582912;
    pcie_gbs = 0.0;  (* shared memory: no transfer *)
    launch_overhead_us = 2.0;
    info_const_mem = "-";
    info_local_mem = "-";
    info_l1 = "6x64KB";
    info_l2 = "6x256KB";
    info_l3 = "12MB";
  }

let all = [ core_i7; gtx8800; gtx580; hd5970 ]

(** Peak single-precision throughput, operations per second. *)
let peak_flops d =
  float_of_int (d.sms * d.fp32_lanes) *. d.clock_ghz *. 1e9

(* ------------------------------------------------------------------ *)
(* The JVM "device": Lime compiled to bytecode, running on one core     *)
(* ------------------------------------------------------------------ *)

(** Cost weights for JIT-compiled bytecode on one i7 core.  Near native for
    plain arithmetic, but: no SIMD vectorization, array accesses pay bounds
    checks, [Math.*] transcendentals are strict double-precision software
    routines (the paper attributes the biggest OpenCL gains to "a faster
    implementation of the transcendental functions in OpenCL compared to
    Java"), and allocation pressure costs GC time. *)
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

let jvm_default =
  {
    jvm_clock_ghz = 3.46;
    jvm_alu = 1.0;
    jvm_div = 8.0;
    jvm_sqrt = 8.0;
    jvm_trans = 60.0;
    jvm_mem = 1.4;
    jvm_field = 1.5;
    jvm_branch = 1.2;
    jvm_call = 5.0;
    jvm_alloc_per_byte = 0.4;
  }

(** Seconds for an operation-count profile executed as bytecode. *)
let jvm_time (c : Lime_ir.Interp.counters) : float =
  let m = jvm_default in
  let f = float_of_int in
  let cycles =
    (f c.Lime_ir.Interp.alu *. m.jvm_alu)
    +. (f c.divs *. m.jvm_div)
    +. (f c.sqrts *. m.jvm_sqrt)
    +. (f c.transcendentals *. m.jvm_trans)
    +. (f (c.mem_reads + c.mem_writes) *. m.jvm_mem)
    +. (f c.bounds_checks *. 0.8)
    +. (f c.field_accesses *. m.jvm_field)
    +. (f c.branches *. m.jvm_branch)
    +. (f c.calls *. m.jvm_call)
    +. (f c.alloc_bytes *. m.jvm_alloc_per_byte)
  in
  cycles /. (m.jvm_clock_ghz *. 1e9)
