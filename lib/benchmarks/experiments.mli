(** Experiment generators: one entry per table/figure of the paper's
    evaluation (§5), plus the §4.3/§5.3 ablations.  `bench/main.exe` drives
    the renderers; `test/test_experiments.ml` asserts the shapes. *)

module Device = Gpusim.Device
module Profile = Gpusim.Profile
module Model = Gpusim.Model
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Comm = Lime_runtime.Comm
module B = Bench_def

val gpu_devices : Device.t list
(** GTX8800, GTX580, HD5970 — the Fig 8 platforms. *)

(** {2 Shared machinery} *)

type prepared = {
  p_bench : B.t;
  p_compiled : Pipeline.compiled;
  p_input : Lime_ir.Value.t;  (** paper-scale input *)
  p_shapes : (string * int array) list;  (** the input's launch shapes *)
  p_scalars : (string * float) list;  (** and scalar arguments *)
  p_launch : Profile.t * Model.array_binding list;
      (** {!Gpusim.Autotune.launch} of the compiled placements *)
  p_in_bytes : int;  (** wire size *)
  p_out_bytes : int;
  p_out_shape : int array option;
}

val prepare : ?config:Memopt.config -> ?quick:bool -> ?seed:int -> B.t -> prepared
(** Compile (under the benchmark's best config by default) and build the
    input — at paper scale by default, at the test scale with
    [~quick:true].  [seed] feeds the deterministic input builders. *)

val kernel_time_under : prepared -> Device.t -> Memopt.config -> float
(** Kernel-only device time under one memory configuration. *)

val baseline_seconds : prepared -> float
(** The Fig 7 baseline: the whole program as bytecode on one core. *)

type endtoend = {
  ee_total_s : float;
  ee_kernel_s : float;
  ee_phases : Comm.phases;
  ee_counters : Gpusim.Counters.t;  (** the kernel launch's counters *)
}

val endtoend : prepared -> Device.t -> endtoend
(** One firing on a device under the config [prepare] compiled with:
    the prepared launch priced once ({!Model.kernel_time_ex}) plus all
    communication. *)

(** {2 Tables} *)

val table1 : unit -> string
val table2 : unit -> string
val table3 : unit -> string

(** {2 Figure 7 — end-to-end speedups} *)

type fig7_row = {
  f7_bench : string;
  f7_series : (string * float) list;  (** platform → speedup over bytecode *)
}

val fig7a : unit -> fig7_row list
(** CPU: 1 core and 6 cores. *)

val fig7b : unit -> fig7_row list
(** GPU: GTX580 and HD5970. *)

val render_fig7 : title:string -> fig7_row list -> string

(** {2 Figure 8 — kernel quality vs hand-tuned} *)

type fig8_cell = {
  f8_config : string;
  f8_rel : float;  (** speedup relative to hand-tuned (>1 = Lime faster) *)
}

type fig8_row = { f8_bench : string; f8_cells : fig8_cell list }

val fig8_for : Device.t -> fig8_row list
val render_fig8 : Device.t -> fig8_row list -> string

(** {2 Figure 9 — computation vs communication} *)

type fig9_row = { f9_bench : string; f9_phases : Comm.phases }

val fig9 : Device.t -> fig9_row list
val render_fig9 : Device.t -> fig9_row list -> string

(** {2 §4.3 marshaling ablation} *)

type marshal_ablation = {
  ma_bench : string;
  ma_custom_pct : float;
  ma_generic_pct : float;
}

val marshal_ablation : Device.t -> marshal_ablation list
val render_marshal_ablation : marshal_ablation list -> string

(** {2 §2 host-glue volume} *)

val glue_volume : unit -> (string * int * int) list
(** benchmark, glue lines, kernel lines. *)

(** {2 §5.3 future work: overlap + direct marshaling} *)

type overlap_row = {
  ov_bench : string;
  ov_serial_ms : float;
  ov_pipelined_speedup : float;
  ov_direct_speedup : float;
  ov_comm_share : float;
}

val overlap : ?firings:int -> Device.t -> overlap_row list
val render_overlap : ?firings:int -> Device.t -> overlap_row list -> string

(** {2 Optimizer — beam-searched rewrite schedules vs the Fig 8 sweep} *)

type optimize_row = {
  op_bench : string;
  op_baseline_s : float;  (** untouched kernel, global placements *)
  op_fig8_name : string;  (** best canned Fig 8 configuration *)
  op_fig8_s : float;
  op_beam_s : float;  (** beam winner; always [<= op_fig8_s] *)
  op_sequence : string list;  (** winning rewrite schedule *)
  op_evals : int;  (** cost-model evaluations spent *)
}

val optimize_rows :
  ?width:int -> ?depth:int -> ?quick:bool -> ?seed:int -> Device.t ->
  optimize_row list
(** One row per {!Registry.workloads} entry on the given device. *)

val render_optimize : Device.t -> optimize_row list -> string

(** {2 Multi-device placement — lib/sched vs the best single device} *)

type multidev_row = {
  md_bench : string;
  md_firings : int;
  md_singles : (string * float) list;
      (** the all-host and all-on-one-device baselines, modeled seconds *)
  md_best_single : string;
  md_single_s : float;
  md_placed_s : float;  (** the searched placement's modeled makespan *)
  md_spec : string;  (** winning [task=device,...] placement *)
  md_evals : int;
  md_exhaustive : bool;
  md_split : bool;  (** kernels spread over more than one device *)
  md_bitexact : bool;
      (** multi-device engine sink equals the single-device engine sink *)
}

val multidev_rows : ?quick:bool -> unit -> multidev_row list
(** One row per pipelined registry workload — everything whose program
    builds a [=>] task graph (the paper's nine plus N-Body Pipe; TMatMul
    is kernel-only and has no pipeline to place): probe the pipeline, search
    placements ({!Lime_sched.Search.search}), and check the sink value of
    a placed engine run against the single-device engine at test scale.
    The search is seeded with the single-device baselines, so
    [md_placed_s <= md_single_s] always; on N-Body Pipe (two n² kernels)
    the inequality is strict — the workload multi-device placement exists
    for. *)

val render_multidev : multidev_row list -> string
