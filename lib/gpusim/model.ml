(** Device timing model: converts a kernel {!Profile.t} plus memory
    placements into an execution-time estimate for a {!Device.t}.

    The model is throughput-based with latency-style penalties for the
    memory-system effects the paper's optimizations target:

    - {b compute}: total issue slots over all lanes, with double-precision
      work scaled by the device's fp64 ratio and transcendentals priced at
      the SFU/native cost;
    - {b global memory}: bytes moved / bandwidth, where the bytes depend on
      coalescing (access pattern), vector width, and — on Fermi — the L1/L2
      hit rate for data re-read across threads;
    - {b constant memory}: broadcast accesses cost a cached read; accesses
      that diverge across the warp serialize;
    - {b local memory}: per-access cost times the bank-conflict degree
      (gcd of row stride and bank count), plus the staging traffic through
      global memory;
    - {b image}: texture-cache model, intrinsically vectorized texels;
    - {b private}: register cost only.

    The kernel time is [max(compute, memory) + launch overhead] — the
    standard roofline assumption that a well-occupied GPU overlaps the two.

    Absolute numbers are estimates; what the test-suite and EXPERIMENTS.md
    check is the *shape*: which placement wins on which device, by roughly
    which factor (Fig 7/8/9). *)

module Ir = Lime_ir.Ir
module Access = Lime_gpu.Access
module Kernel = Lime_gpu.Kernel

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

type breakdown = {
  bd_compute_s : float;
  bd_global_s : float;
  bd_local_s : float;
  bd_constant_s : float;
  bd_image_s : float;
  bd_launch_s : float;
  bd_total_s : float;
}

let pp_breakdown ppf b =
  Fmt.pf ppf
    "total=%.3gs (compute=%.3g global=%.3g local=%.3g const=%.3g image=%.3g \
     launch=%.3g)"
    b.bd_total_s b.bd_compute_s b.bd_global_s b.bd_local_s b.bd_constant_s
    b.bd_image_s b.bd_launch_s

(** Information about an array argument needed by the memory model. *)
type array_binding = {
  ab_name : string;
  ab_elem_bytes : int;
  ab_total_bytes : int;  (** full array size *)
  ab_row_len : int;  (** innermost dimension length (1 if rank 1) *)
  ab_placement : Ir.placement;
}

(** The sums of one pricing pass: every cost the breakdown charges and
    every count the hardware counters report.  All fields are floats, so
    the record is stored flat and an update boxes nothing. *)
type sums = {
  mutable s_issue_slots : float;
  mutable s_access_slots : float;  (** non-private access slots *)
  mutable s_compute_s : float;
  mutable s_global_s : float;
      (** global-memory seconds: access slots during the pass, plus the
          bytes over the bandwidth after it *)
  mutable s_local_s : float;
  mutable s_constant_s : float;
  mutable s_image_s : float;
  mutable s_lat_s : float;  (** exposed memory latency *)
  mutable s_launch_s : float;
  mutable s_reduce_s : float;
  mutable s_total_s : float;
  (* hardware-counter accumulators, charged next to each cost *)
  mutable s_global_bytes : float;
  mutable s_gtx_coalesced : float;
  mutable s_gtx_uncoalesced : float;
  mutable s_gslot_cycles : float;
  mutable s_lat_tx : float;
  mutable s_cache_hits : float;
  mutable s_cache_misses : float;
  mutable s_local_accesses : float;
  mutable s_bank_replays : float;
  mutable s_bytes_local : float;
  mutable s_const_broadcast : float;
  mutable s_const_serialized : float;
  mutable s_bytes_constant : float;
  mutable s_tex_fetches : float;
  mutable s_tex_hits : float;
  mutable s_tex_misses : float;
  mutable s_bytes_image : float;
}

(** One pass computes both the timing breakdown and the simulated hardware
    counters, so the two cannot disagree: every second the breakdown
    charges is the product of a count accumulated here and a device cost
    parameter (the consistency the counter tests reconstruct). *)
let pass (d : Device.t) (p : Profile.t) (arrays : array_binding list) : sums
    =
  let s =
    {
      s_issue_slots = 0.0;
      s_access_slots = 0.0;
      s_compute_s = 0.0;
      s_global_s = 0.0;
      s_local_s = 0.0;
      s_constant_s = 0.0;
      s_image_s = 0.0;
      s_lat_s = 0.0;
      s_launch_s = 0.0;
      s_reduce_s = 0.0;
      s_total_s = 0.0;
      s_global_bytes = 0.0;
      s_gtx_coalesced = 0.0;
      s_gtx_uncoalesced = 0.0;
      s_gslot_cycles = 0.0;
      s_lat_tx = 0.0;
      s_cache_hits = 0.0;
      s_cache_misses = 0.0;
      s_local_accesses = 0.0;
      s_bank_replays = 0.0;
      s_bytes_local = 0.0;
      s_const_broadcast = 0.0;
      s_const_serialized = 0.0;
      s_bytes_constant = 0.0;
      s_tex_fetches = 0.0;
      s_tex_hits = 0.0;
      s_tex_misses = 0.0;
      s_bytes_image = 0.0;
    }
  in
  let clock = d.Device.clock_ghz *. 1e9 in
  let lanes = float_of_int (d.Device.sms * d.Device.fp32_lanes) in
  let cpu_threads =
    match d.Device.kind with
    | Device.Cpu -> float_of_int (d.Device.sms * d.Device.threads_per_core)
    | Device.Gpu -> 1.0
  in
  (* ---- compute ---- *)
  let df = Profile.double_frac p in
  let fp64_scale = 1.0 +. (df *. ((1.0 /. d.Device.fp64_ratio) -. 1.0)) in
  s.s_issue_slots <-
    ((p.Profile.p_alu *. d.Device.alu_cost)
    +. (p.Profile.p_div *. d.Device.div_cost)
    +. (p.Profile.p_sqrt *. d.Device.sqrt_cost)
    +. (p.Profile.p_trans *. d.Device.trans_cost)
    +. (p.Profile.p_private_accesses *. 1.0))
    *. fp64_scale;
  (* total non-private access slots, used by the CPU path *)
  s.s_access_slots <-
    List.fold_left (fun acc a -> acc +. a.Profile.ac_count) 0.0
      p.Profile.p_accesses;
  s.s_compute_s <-
    (match d.Device.kind with
    | Device.Gpu -> s.s_issue_slots /. (lanes *. clock)
    | Device.Cpu ->
        (* CPU OpenCL: compiled scalar-ish code (auto-vectorization rarely
           fires on these kernels), parallel over cores at ~85% efficiency
           with a modest hyperthreading bonus.  Memory accesses are cached
           loads costing about one issue slot. *)
        let par_eff = 0.85 in
        let ht =
          1.0
          +. ((cpu_threads /. float_of_int d.Device.sms -. 1.0) *. 0.06)
        in
        (s.s_issue_slots +. (s.s_access_slots *. 1.2))
        /. (float_of_int d.Device.sms *. par_eff *. ht *. clock));
  (* ---- memory ---- *)
  let binding name =
    List.find_opt (fun a -> a.ab_name = name) arrays
  in
  let warp_f = float_of_int d.Device.warp in
  let bw = d.Device.global_bw_gbs *. 1e9 in
  (* exposed memory latency: each transaction stalls its warp for the full
     global latency; an SM hides up to [inflight_warps] such stalls
     concurrently.  This is what makes un-cached global access on the
     GTX8800 so much slower than constant/local/texture (Fig 8a). *)
  let latency_seconds transactions =
    transactions *. d.Device.global_lat_cycles
    /. (float_of_int (d.Device.sms * d.Device.inflight_warps) *. clock)
  in
  if d.Device.kind = Device.Cpu then
    (* all spaces are cached RAM on a CPU: only cache misses hit the bus *)
    List.iter
      (fun (a : Profile.access) ->
        match binding a.Profile.ac_root with
        | None -> ()
        | Some ab ->
            let miss = 1.0 -. d.Device.cache_hit_shared in
            let bytes =
              a.Profile.ac_count *. float_of_int ab.ab_elem_bytes *. miss
            in
            s.s_global_bytes <- s.s_global_bytes +. bytes;
            (* counters: misses fill 64B cache lines over the bus *)
            s.s_cache_hits <-
              s.s_cache_hits
              +. (a.Profile.ac_count *. d.Device.cache_hit_shared);
            s.s_cache_misses <-
              s.s_cache_misses +. (a.Profile.ac_count *. miss);
            s.s_gtx_coalesced <- s.s_gtx_coalesced +. (bytes /. 64.0))
      p.Profile.p_accesses
  else
  List.iter
    (fun (a : Profile.access) ->
      match binding a.Profile.ac_root with
      | None -> ()
      | Some ab ->
          let pl = ab.ab_placement in
          let vw = float_of_int (max 1 pl.Ir.vector_width) in
          (* vectorization folds [vw] scalar accesses into one *)
          let count =
            if pl.Ir.vector_width > 1 && a.Profile.ac_last_const then
              a.Profile.ac_count /. vw
            else a.Profile.ac_count
          in
          let elem_b = float_of_int ab.ab_elem_bytes in
          let access_bytes = elem_b *. vw in
          (match pl.Ir.space with
          | Ir.MGlobal | Ir.MHost
            when d.Device.has_l2 && ab.ab_total_bytes <= d.Device.l2_bytes ->
              (* the whole array is L2-resident after the first pass: global
                 accesses behave like a slightly slower on-chip memory —
                 this is what flattens Fig 8(b) on Fermi *)
              s.s_global_s <-
                s.s_global_s +. (count *. 2.0 /. (lanes *. clock));
              s.s_global_bytes <-
                s.s_global_bytes +. float_of_int ab.ab_total_bytes;
              s.s_gslot_cycles <- s.s_gslot_cycles +. (count *. 2.0);
              s.s_cache_hits <- s.s_cache_hits +. count;
              s.s_gtx_coalesced <- s.s_gtx_coalesced +. (count /. warp_f)
          | Ir.MGlobal | Ir.MHost ->
              (* coalescing: bytes actually moved per useful byte *)
              let waste =
                match a.Profile.ac_pattern with
                | Access.AThreadLinear ->
                    (* consecutive threads access consecutive *rows*: the
                       memory stride is the row length, so scalar component
                       accesses of wide rows fetch mostly-unused segment
                       bytes (the paper's motivation for float4
                       vectorization) *)
                    let stride_bytes =
                      if a.Profile.ac_last_const then
                        elem_b *. float_of_int (max 1 ab.ab_row_len)
                      else access_bytes
                    in
                    Float.max 1.0
                      (Float.min (128.0 /. access_bytes)
                         (stride_bytes /. access_bytes))
                | Access.AThreadStrided ->
                    (* each lane touches its own memory segment *)
                    Float.min
                      (128.0 /. access_bytes)
                      (Float.max 2.0 (float_of_int ab.ab_row_len))
                | Access.AStream | Access.ABroadcast ->
                    (* whole warp reads the same address: one segment *)
                    1.0 /. float_of_int d.Device.warp
              in
              (* cache filtering of re-read data *)
              let miss =
                match a.Profile.ac_pattern with
                | Access.AStream | Access.ABroadcast ->
                    1.0 -. d.Device.cache_hit_shared
                | Access.AThreadLinear when d.Device.has_l1 ->
                    (* an L1 line holds whole rows: after the first
                       component read the rest of the row hits cache *)
                    1.0 /. waste
                | Access.AThreadStrided when d.Device.has_l1 ->
                    (* strided rows often refetched from L1 lines *)
                    0.5
                | _ -> 1.0
              in
              let bytes =
                match a.Profile.ac_pattern with
                | Access.AStream | Access.ABroadcast ->
                    (* one transaction per warp, with a minimum transaction
                       granularity on the memory bus *)
                    count /. float_of_int d.Device.warp
                    *. Float.max 32.0 access_bytes
                    *. miss
                | _ -> count *. access_bytes *. waste *. miss
              in
              s.s_global_bytes <- s.s_global_bytes +. bytes;
              (* exposed latency: transactions per warp access grow with the
                 coalescing waste *)
              let tx_per_warp_access =
                match a.Profile.ac_pattern with
                | Access.AStream | Access.ABroadcast -> miss
                | _ ->
                    Lime_support.Util.clampf 1.0
                      (float_of_int d.Device.warp)
                      waste
                    *. miss
              in
              let transactions =
                count /. float_of_int d.Device.warp *. tx_per_warp_access
              in
              s.s_lat_s <- s.s_lat_s +. latency_seconds transactions;
              s.s_lat_tx <- s.s_lat_tx +. transactions;
              (* warp accesses that replayed (> 1 segment per warp) count
                 as uncoalesced transactions, the rest as coalesced *)
              if tx_per_warp_access > 1.0 then
                s.s_gtx_uncoalesced <- s.s_gtx_uncoalesced +. transactions
              else s.s_gtx_coalesced <- s.s_gtx_coalesced +. transactions;
              s.s_cache_hits <- s.s_cache_hits +. (count *. (1.0 -. miss));
              s.s_cache_misses <- s.s_cache_misses +. (count *. miss);
              (* cached hits still pay an L1 access slot *)
              if d.Device.has_l1 then (
                s.s_global_s <-
                  s.s_global_s +. (count *. 1.0 /. (lanes *. clock));
                s.s_gslot_cycles <- s.s_gslot_cycles +. count)
          | Ir.MConstant ->
              let cost =
                match a.Profile.ac_pattern with
                | Access.AStream | Access.ABroadcast ->
                    s.s_const_broadcast <- s.s_const_broadcast +. count;
                    d.Device.const_cost
                | _ ->
                    (* divergent constant access serializes the warp *)
                    s.s_const_serialized <- s.s_const_serialized +. count;
                    float_of_int d.Device.warp *. 0.5
              in
              s.s_bytes_constant <-
                s.s_bytes_constant +. (count *. access_bytes);
              s.s_constant_s <-
                s.s_constant_s +. (count *. cost /. (lanes *. clock))
          | Ir.MLocal ->
              let stride =
                if pl.Ir.padded then ab.ab_row_len + 1 else ab.ab_row_len
              in
              let conflict =
                match a.Profile.ac_pattern with
                | Access.AStream | Access.ABroadcast -> 1.0
                | _ ->
                    float_of_int
                      (max 1 (gcd (max 1 stride) d.Device.local_banks))
              in
              s.s_local_s <-
                s.s_local_s
                +. (count *. d.Device.local_cost *. conflict
                   /. (lanes *. clock));
              s.s_local_accesses <- s.s_local_accesses +. count;
              s.s_bank_replays <-
                s.s_bank_replays +. (count *. (conflict -. 1.0));
              s.s_bytes_local <- s.s_bytes_local +. (count *. access_bytes);
              (* staging traffic: each work group streams the array through
                 its tile once *)
              let groups =
                Float.max 1.0
                  (p.Profile.p_items /. float_of_int Kernel.group_size)
              in
              let staging = float_of_int ab.ab_total_bytes *. groups in
              s.s_global_bytes <- s.s_global_bytes +. staging;
              (* staging streams coalesce into 128B segments *)
              s.s_gtx_coalesced <- s.s_gtx_coalesced +. (staging /. 128.0)
          | Ir.MImage ->
              let hit = d.Device.tex_hit_rate in
              let texel_w =
                Float.min 4.0 (float_of_int (max 1 ab.ab_row_len))
              in
              let tex_count = count /. texel_w in
              s.s_image_s <-
                s.s_image_s
                +. (tex_count *. d.Device.tex_cost /. (lanes *. clock));
              let miss_tx = tex_count /. float_of_int d.Device.warp
                            *. (1.0 -. hit) in
              s.s_lat_s <- s.s_lat_s +. latency_seconds miss_tx;
              s.s_lat_tx <- s.s_lat_tx +. miss_tx;
              s.s_gtx_coalesced <- s.s_gtx_coalesced +. miss_tx;
              s.s_tex_fetches <- s.s_tex_fetches +. tex_count;
              s.s_tex_hits <- s.s_tex_hits +. (tex_count *. hit);
              s.s_tex_misses <- s.s_tex_misses +. (tex_count *. (1.0 -. hit));
              s.s_bytes_image <-
                s.s_bytes_image +. (tex_count *. elem_b *. texel_w);
              s.s_global_bytes <-
                s.s_global_bytes
                +. (tex_count *. (1.0 -. hit) *. elem_b *. texel_w)
          | Ir.MPrivate -> ()))
    p.Profile.p_accesses;
  s.s_global_s <- s.s_global_s +. (s.s_global_bytes /. bw);
  let mem_s = s.s_global_s +. s.s_local_s +. s.s_constant_s +. s.s_image_s in
  s.s_launch_s <- d.Device.launch_overhead_us *. 1e-6;
  (* reductions add a log-depth second phase *)
  s.s_reduce_s <-
    (if p.Profile.p_reduce_elems > 0.0 then
       (p.Profile.p_reduce_elems /. (lanes *. clock)) +. s.s_launch_s
     else 0.0);
  (* exposed latency is additive: dependent loads in tight loops stall
     warps beyond what the in-flight pool can hide *)
  s.s_total_s <-
    Float.max s.s_compute_s mem_s +. s.s_lat_s +. s.s_launch_s +. s.s_reduce_s;
  s

let breakdown_of (s : sums) : breakdown =
  {
    bd_compute_s = s.s_compute_s;
    bd_global_s = s.s_global_s +. s.s_lat_s;
    bd_local_s = s.s_local_s;
    bd_constant_s = s.s_constant_s;
    bd_image_s = s.s_image_s;
    bd_launch_s = s.s_launch_s;
    bd_total_s = s.s_total_s;
  }

let kernel_time d p arrays = breakdown_of (pass d p arrays)

let kernel_time_ex (d : Device.t) (p : Profile.t)
    (arrays : array_binding list) : breakdown * Counters.t =
  let s = pass d p arrays in
  (* launch geometry, same rules as {!launch_attrs} *)
  let items = Float.max 1.0 p.Profile.p_items in
  let groups = ceil (items /. float_of_int Kernel.group_size) in
  let warps_per_group =
    (Kernel.group_size + d.Device.warp - 1) / d.Device.warp
  in
  let total_warps = groups *. float_of_int warps_per_group in
  let pool = float_of_int (d.Device.sms * d.Device.inflight_warps) in
  let counters =
    {
      Counters.ct_device = d.Device.name;
      ct_peak_bw = d.Device.global_bw_gbs *. 1e9;
      ct_peak_flops = Device.peak_flops d;
      ct_items = items;
      ct_work_groups = groups;
      ct_warps = total_warps;
      ct_occupancy = Float.min 1.0 (total_warps /. pool);
      ct_flops = p.Profile.p_total_fp;
      ct_issue_cycles = s.s_issue_slots;
      ct_access_slots = s.s_access_slots;
      ct_reduce_elems = p.Profile.p_reduce_elems;
      ct_gtx_total = s.s_gtx_coalesced +. s.s_gtx_uncoalesced;
      ct_gtx_coalesced = s.s_gtx_coalesced;
      ct_gtx_uncoalesced = s.s_gtx_uncoalesced;
      ct_bytes_global = s.s_global_bytes;
      ct_gslot_cycles = s.s_gslot_cycles;
      ct_lat_tx = s.s_lat_tx;
      ct_cache_hits = s.s_cache_hits;
      ct_cache_misses = s.s_cache_misses;
      ct_local_accesses = s.s_local_accesses;
      ct_bank_replays = s.s_bank_replays;
      ct_bytes_local = s.s_bytes_local;
      ct_const_broadcast = s.s_const_broadcast;
      ct_const_serialized = s.s_const_serialized;
      ct_bytes_constant = s.s_bytes_constant;
      ct_tex_fetches = s.s_tex_fetches;
      ct_tex_hits = s.s_tex_hits;
      ct_tex_misses = s.s_tex_misses;
      ct_bytes_image = s.s_bytes_image;
      ct_compute_s = s.s_compute_s;
      ct_global_s = s.s_global_s;
      ct_local_s = s.s_local_s;
      ct_constant_s = s.s_constant_s;
      ct_image_s = s.s_image_s;
      ct_latency_s = s.s_lat_s;
      ct_launch_s = s.s_launch_s;
      ct_reduce_s = s.s_reduce_s;
      ct_total_s = s.s_total_s;
    }
  in
  (breakdown_of s, counters)

(* ------------------------------------------------------------------ *)
(* Launch attributes for tracing                                       *)
(* ------------------------------------------------------------------ *)

(** Key/value description of one kernel launch for trace attachments:
    work-group geometry, warp count, an occupancy estimate (in-flight warp
    demand vs. the device's latency-hiding pool), and the worst local-memory
    bank-conflict degree among the bound arrays — the same gcd(stride,
    banks) rule the timing model charges. *)
let launch_attrs (d : Device.t) (p : Profile.t)
    (arrays : array_binding list) : (string * string) list =
  let items = Float.max 1.0 p.Profile.p_items in
  let groups = ceil (items /. float_of_int Kernel.group_size) in
  let warps_per_group =
    (Kernel.group_size + d.Device.warp - 1) / d.Device.warp
  in
  let total_warps = groups *. float_of_int warps_per_group in
  let pool = float_of_int (d.Device.sms * d.Device.inflight_warps) in
  let occupancy = Float.min 1.0 (total_warps /. pool) in
  let bank_conflict =
    List.fold_left
      (fun acc ab ->
        match ab.ab_placement.Ir.space with
        | Ir.MLocal ->
            let stride =
              if ab.ab_placement.Ir.padded then ab.ab_row_len + 1
              else ab.ab_row_len
            in
            max acc (max 1 (gcd (max 1 stride) d.Device.local_banks))
        | _ -> acc)
      1 arrays
  in
  [
    ("device", d.Device.name);
    ("work_items", Printf.sprintf "%.0f" items);
    ("work_group_size", string_of_int Kernel.group_size);
    ("work_groups", Printf.sprintf "%.0f" groups);
    ("warps_per_group", string_of_int warps_per_group);
    ("occupancy", Printf.sprintf "%.2f" occupancy);
    ("bank_conflict_degree", string_of_int bank_conflict);
    ("double_frac", Printf.sprintf "%.2f" (Profile.double_frac p));
    ("approx", if p.Profile.p_approx then "true" else "false");
  ]

(* ------------------------------------------------------------------ *)
(* Array bindings from runtime values                                  *)
(* ------------------------------------------------------------------ *)

let binding_of_shape ~name ~elem ~(shape : int array)
    (pl : Ir.placement) : array_binding =
  let total = Array.fold_left ( * ) 1 shape in
  {
    ab_name = name;
    ab_elem_bytes = Ir.scalar_size_bytes elem;
    ab_total_bytes = total * Ir.scalar_size_bytes elem;
    ab_row_len = (if Array.length shape <= 1 then 1 else shape.(Array.length shape - 1));
    ab_placement = pl;
  }


(* ------------------------------------------------------------------ *)
(* Bytecode time from an analytic profile                              *)
(* ------------------------------------------------------------------ *)

(** Estimate the "Lime compiled to bytecode" (JVM) execution time of the
    same work, from the analytic profile — the Fig 7 baseline.  Uses the
    {!Device.jvm_default} weights that also price a counted interpreter
    run. *)
let jvm_time_profile (p : Profile.t) : float =
  let m = Device.jvm_default in
  let accesses =
    List.fold_left (fun acc a -> acc +. a.Profile.ac_count) 0.0
      p.Profile.p_accesses
    +. p.Profile.p_private_accesses
  in
  let cycles =
    (p.Profile.p_alu *. m.Device.jvm_alu)
    +. (p.Profile.p_div *. m.Device.jvm_div)
    +. (p.Profile.p_sqrt *. m.Device.jvm_sqrt)
    +. (p.Profile.p_trans *. m.Device.jvm_trans)
    +. (accesses *. (m.Device.jvm_mem +. 0.3 (* bounds check *)))
  in
  cycles /. (m.Device.jvm_clock_ghz *. 1e9)
