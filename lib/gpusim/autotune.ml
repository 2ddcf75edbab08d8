(** Automated exploration of the memory mapping (paper §4.2.1).

    The compiler "permits for any of the optimizations to be enabled and
    disabled so that it is possible to perform an automated exploration of
    the memory mapping and layout".  This module is that exploration as a
    library: given a kernel, a device and the launch shapes, it times every
    Fig 8 configuration on the device model and returns the ranking.

    The paper notes such auto-tuning "falls outside the scope of this
    paper" for the thread-count dimension; here we cover the dimension the
    paper's compiler does expose — the memory configuration — and the
    `examples/autotune.exe` demo drives it over the whole benchmark
    suite. *)

module Ir = Lime_ir.Ir
module Memopt = Lime_gpu.Memopt
module Kernel = Lime_gpu.Kernel

type entry = {
  at_name : string;
  at_config : Memopt.config;
  at_time_s : float;
  at_breakdown : Model.breakdown;
  at_counters : Counters.t;
}

(** Array bindings for the timing model, derived from launch shapes and the
    optimizer's decisions (kernel-local arrays use their static shapes; the
    result array takes [out_shape]). *)
let bindings_of (k : Kernel.kernel) (decisions : Memopt.decision list)
    ~(shapes : (string * int array) list) ~(out_shape : int array option) :
    Model.array_binding list =
  let param_bindings =
    List.filter_map
      (fun (p, t) ->
        match (t, List.assoc_opt p shapes) with
        | Ir.TArr aty, Some shape ->
            Some
              (Model.binding_of_shape ~name:p ~elem:aty.Ir.elem ~shape
                 (Memopt.placement_for decisions p))
        | _ -> None)
      k.Kernel.k_params
  in
  let local_bindings =
    List.filter_map
      (fun (d : Memopt.decision) ->
        if List.mem_assoc d.Memopt.d_array k.Kernel.k_params then None
        else
          let info = d.Memopt.d_info in
          let shape =
            match (Ir.static_elem_count info.Memopt.ai_ty, out_shape) with
            | Some _, _ ->
                Array.of_list
                  (List.map
                     (function Ir.DFixed n -> n | Ir.DDyn -> 0)
                     info.Memopt.ai_ty.Ir.dims)
            | None, Some s -> s
            | None, None -> [| 0 |]
          in
          Some
            (Model.binding_of_shape ~name:d.Memopt.d_array
               ~elem:info.Memopt.ai_ty.Ir.elem ~shape d.Memopt.d_placement))
      decisions
  in
  param_bindings @ local_bindings

(** The bindings of every array a launch with profile [prof] touches, the
    result sized by the last parallel loop's trip count. *)
let bindings (k : Kernel.kernel) (decisions : Memopt.decision list)
    ~(shapes : (string * int array) list) (prof : Profile.t) :
    Model.array_binding list =
  let out_shape =
    match k.Kernel.k_ret with
    | Ir.TArr aty ->
        Some
          (Array.of_list
             (List.map
                (function
                  | Ir.DFixed n -> n
                  | Ir.DDyn -> int_of_float prof.Profile.p_last_parfor_items)
                aty.Ir.dims))
    | _ -> None
  in
  bindings_of k decisions ~shapes ~out_shape

(** A kernel's launch walk ({!Profile.walk}), good for every placement
    table: the arrays {!Memopt.decide} may place in private memory, those
    allocated in the parallel loop, are walked as private roots. *)
let profile ?hoist_invariant ?affine_lanes ?thread_vars (k : Kernel.kernel)
    (infos : Memopt.array_info list) ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : Profile.walk =
  let private_roots =
    List.filter_map
      (fun (ai : Memopt.array_info) ->
        if ai.Memopt.ai_alloc_in_parfor then Some ai.Memopt.ai_name else None)
      infos
  in
  Profile.walk ?hoist_invariant ?affine_lanes ?thread_vars ~private_roots k
    ~shapes ~scalars

(** A launch priced from its kernel's {!profile}: the profile under the
    launch's private arrays, and its {!bindings}. *)
let bind (k : Kernel.kernel) (decisions : Memopt.decision list)
    ~(shapes : (string * int array) list) (w : Profile.walk) :
    Profile.t * Model.array_binding list =
  let prof = Profile.under w decisions in
  (prof, bindings k decisions ~shapes prof)

(** The one launch pricer: the launch's {!Profile.profile} and its
    {!bindings}.  Every tool that prices one launch goes through here; a
    search or a sweep that prices many launches of one kernel walks it
    once ({!profile}) and {!bind}s each. *)
let launch ?hoist_invariant ?affine_lanes ?thread_vars (k : Kernel.kernel)
    (decisions : Memopt.decision list) ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) :
    Profile.t * Model.array_binding list =
  let prof =
    Profile.profile ?hoist_invariant ?affine_lanes ?thread_vars k decisions
      ~shapes ~scalars
  in
  (prof, bindings k decisions ~shapes prof)

(** Time one configuration, also yielding its simulated hardware
    counters. *)
let time_config_ex (d : Device.t) (k : Kernel.kernel) (cfg : Memopt.config)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : Model.breakdown * Counters.t =
  let prof, bindings = launch k (Memopt.optimize cfg k) ~shapes ~scalars in
  Model.kernel_time_ex d prof bindings

let entry name cfg ((bd : Model.breakdown), ct) =
  {
    at_name = name;
    at_config = cfg;
    at_time_s = bd.Model.bd_total_s;
    at_breakdown = bd;
    at_counters = ct;
  }

(** Sweep the eight Fig 8 configurations; result sorted fastest first.
    The kernel is analyzed and walked once (one thread-dependence table,
    one {!Memopt.analyze}, one {!profile}); each configuration only
    decides its placements and {!bind}s its launch from the walk.  [map]
    runs the per-configuration pricing and must preserve order, so the
    ranking does not depend on it; it may run them on several domains,
    since the pricing only reads the shared infos and walk, which are
    immutable. *)
let sweep_with ~map (d : Device.t) (k : Kernel.kernel)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : entry list =
  let thread_vars = Lime_gpu.Taint.thread_dependent k.Kernel.k_body in
  let infos = Memopt.analyze ~thread_vars k in
  let walk = profile ~thread_vars k infos ~shapes ~scalars in
  Memopt.fig8_configs
  |> map (fun (name, cfg) ->
         let prof, bindings =
           bind k (Memopt.decide_all cfg infos) ~shapes walk
         in
         entry name cfg (Model.kernel_time_ex d prof bindings))
  |> List.sort (fun a b -> Float.compare a.at_time_s b.at_time_s)

let sweep d k ~shapes ~scalars = sweep_with ~map:List.map d k ~shapes ~scalars

let describe (entries : entry list) : string =
  entries
  |> List.map (fun e ->
         Printf.sprintf "%-32s %10.3f ms" e.at_name (e.at_time_s *. 1e3))
  |> String.concat "\n"
