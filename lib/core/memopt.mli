(** The memory optimizer (paper §4.2.1) and vectorizer (§4.2.2).

    Pattern-matches the kernel IR for the access idioms of Fig 5 and maps
    each array onto the OpenCL memory hierarchy; every optimization toggles
    independently, which is how the Fig 8 sweep is generated. *)

type config = {
  use_private : bool;
  use_local : bool;
  pad_local : bool;  (** remove bank conflicts by padding rows *)
  use_image : bool;
  use_constant : bool;
  vectorize : bool;
}

val config_global : config
val config_global_vector : config
val config_local : config
val config_local_noconflict : config
val config_local_noconflict_vector : config
val config_constant : config
val config_constant_vector : config
val config_image : config

val config_all : config
(** Every optimization enabled (the compiler's default). *)

val fig8_configs : (string * config) list
(** The eight bars of Fig 8, in the paper's order. *)

val config_name : config -> string

val private_threshold_elems : int
(** Maximum statically sized per-thread array promoted to private memory. *)

val constant_budget_bytes : int
(** Constant-memory capacity (64KB on all Table 2 GPUs). *)

(** Access-pattern class of an array's leading index. *)
type access_class =
  | AThreadLinear  (** leading index = parallel var (+ constant): coalesced *)
  | AThreadStrided  (** depends on the parallel var in a non-unit way *)
  | AStream  (** varies with an inner sequential loop, same across threads *)
  | ABroadcast  (** invariant inside the parallel loop *)

val class_name : access_class -> string

type array_info = {
  ai_name : string;
  ai_ty : Lime_ir.Ir.aty;
  ai_is_param : bool;
  ai_read_only : bool;
  ai_alloc_in_parfor : bool;
  ai_static_elems : int option;
  ai_classes : access_class list;  (** deduplicated observed classes *)
  ai_innermost_static : bool;
      (** all innermost-dimension indices are compile-time constants *)
  ai_lane_mod : int;
      (** alignment modulus of affine innermost indices ([v*m + c]); 0 when
          all innermost indices are plain constants.  Populated only under
          [~affine_lanes:true]. *)
  ai_load_sites : int;
  ai_store_sites : int;
}

val affine_lane : Lime_ir.Ir.expr -> (int * int) option
(** [affine_lane e] recognizes an index of the shape [v*m + c] (with
    [m >= 2], [0 <= c < m]) and returns [(m, c)]: the lane within an
    [m]-aligned group is statically known.  Unrolled tiled loops produce
    exactly these indices. *)

val analyze : ?affine_lanes:bool -> Kernel.kernel -> array_info list
(** Access analysis for every array in a kernel, tracing views created by
    partial indexing back to their root arrays.  [~affine_lanes:true]
    (default false) additionally treats affine [v*m + c] innermost indices
    as statically-known lanes, which lets {!decide} vectorize arrays whose
    rows are wider than a vector — the rewrite engine's scorer turns this
    on; the Fig 8 paper path never does, keeping its output unchanged. *)

type decision = {
  d_array : string;
  d_placement : Lime_ir.Ir.placement;
  d_reason : string;
  d_info : array_info;
}

val decide : ?constant_left:int -> config -> array_info -> decision
(** Placement decision for one array.  [constant_left] (default the full
    {!constant_budget_bytes}) is the constant-memory budget still
    available; {!decide_all} threads the cumulative balance through it. *)

val decide_all : config -> array_info list -> decision list
(** Placement table for an analysis under [cfg], in analysis order.
    Constant-memory placements debit a cumulative budget so multiple
    broadcast arrays cannot overcommit the 64KB space.  {!analyze} does
    not read the configuration, so callers that try several
    configurations of one kernel analyze it once. *)

val optimize :
  ?affine_lanes:bool -> config -> Kernel.kernel -> decision list
(** Placement table for a kernel under [cfg]:
    [decide_all cfg (analyze ~affine_lanes k)]. *)

val placements : decision list -> (string * Lime_ir.Ir.placement) list
val placement_for : decision list -> string -> Lime_ir.Ir.placement
val describe : decision list -> string
