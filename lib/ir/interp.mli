(** Reference interpreter for the IR — the "bytecode" execution engine of
    the reproduction (the JVM of the paper's evaluation), with operation
    counters that feed the Java cost model.  Functions are compiled to
    closures on their first call and cached in the {!state}. *)

exception Runtime_error of string

type counters = {
  mutable alu : int;
  mutable divs : int;
  mutable sqrts : int;
  mutable transcendentals : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable bounds_checks : int;
  mutable field_accesses : int;
  mutable branches : int;
  mutable calls : int;
  mutable alloc_bytes : int;
  mutable double_ops : int;
}

val copy_counters : counters -> counters
(** A snapshot: later increments of the original do not reach it. *)

val diff_counters : counters -> counters -> counters
(** [diff_counters a b] is a fresh record of [a - b], field by field —
    the work done between snapshot [b] and [a]. *)

type code
(** The state's compiled functions and field initializers. *)

type state = {
  md : Ir.modul;
  statics : (string * string, Value.t ref) Hashtbl.t;
  counters : counters;
  mutable finish_hook : state -> Value.task_node list -> int option -> unit;
      (** invoked by [graph.finish(n)]; the task-graph runtime installs
          itself here (see [Lime_runtime.Engine.attach]) *)
  mutable print_hook : string -> unit;
  code : code;
}

val call_function :
  state -> string -> Value.obj option -> Value.t list -> Value.t
(** Invoke a function by qualified name (["Class.method"]). *)

val fold_literal : Ir.expr -> Ir.const option
(** The literal a [Bin], [Un] or [Cast] node over [Const] operands
    evaluates to under this interpreter's own operators; [None] for any
    other node, and wherever evaluating it raises (division by zero, an
    operator its scalar does not have).  Every compile-time fold of
    constant arithmetic goes through here, so the kernel computes what the
    host computes. *)

val create : Ir.modul -> state
(** Load a module: registers statics and runs their initializers. *)

val run : state -> cls:string -> meth:string -> Value.t list -> Value.t

val run_instance :
  state -> cls:string -> ctor_args:Value.t list -> meth:string ->
  Value.t list -> Value.t
(** Call an instance method on a freshly constructed instance. *)
