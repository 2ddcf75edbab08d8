(** Kernel identification and extraction (paper §4.1).

    A *filter* — an isolated task whose worker is a static [local] method
    with value-typed ports — is the unit of offload; the type system
    guarantees purity, so no alias or dependence analysis is required. *)

type kernel = {
  k_name : string;  (** qualified worker name, e.g. ["NBody.computeForces"] *)
  k_params : (string * Lime_ir.Ir.ty) list;
  k_ret : Lime_ir.Ir.ty;
  k_body : Lime_ir.Ir.stmt list;
      (** self-contained: all local calls inlined, static finals folded,
          nested maps demoted to sequential loops *)
  k_parallel : bool;  (** contains a data-parallel map or reduce *)
  k_uses_double : bool;
}

val group_size : int
(** The work-group size of every launch: the OpenCL staging tiles and
    reduction scratch ([TILE]), the host glue's [local] size and the
    timing model's groups all use it. *)

(** Why a task can or cannot be offloaded. *)
type offload_verdict =
  | Offloadable
  | Not_isolated  (** worker is not [local] with value ports *)
  | Stateful  (** instance worker: task-private mutable state stays on host *)
  | No_parallelism  (** no map/reduce inside: offload would not pay *)

val verdict_name : offload_verdict -> string

val classify : Lime_ir.Ir.modul -> Lime_ir.Ir.task_desc -> offload_verdict
(** Decide whether a task is offloadable, per the paper's rules. *)

val extract : Lime_ir.Ir.modul -> worker:string -> kernel
(** Extract a self-contained kernel from a static local worker: inlines
    every call to a [local] function (rejecting recursion), folds
    [static final] reads to constants, and demotes nested parallel loops.
    Raises {!Lime_support.Diag.Error_exn} when the worker is not a legal
    filter. *)

val to_module : kernel -> Lime_ir.Ir.modul
(** Wrap an extracted kernel as a callable module so the reference
    interpreter (and the simulator's functional mode) can execute it. *)
