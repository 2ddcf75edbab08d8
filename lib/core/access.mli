(** Kernel access analysis: the one classifier of an array index against
    the Fig 5 idioms, read by both the memory optimizer ({!Memopt}) and the
    analytic profiler ([Gpusim.Profile]), and the one resolver of views to
    their root array, also used by the OpenCL printer. *)

(** Access class of an array's leading index.  The constructor order is
    part of the contract: the profiler's access table hashes on it. *)
type cls =
  | AThreadLinear  (** leading index = parallel var (+ constant): coalesced *)
  | AThreadStrided  (** depends on the parallel var in a non-unit way *)
  | AStream  (** varies with an inner sequential loop, same across threads *)
  | ABroadcast  (** invariant inside the parallel loop *)

val name : cls -> string
(** ["thread-linear"], ["thread-strided"], ["stream"], ["broadcast"]. *)

val classify :
  par_vars:string list ->
  seq_vars:string list ->
  thread_vars:(string, unit) Hashtbl.t ->
  Lime_ir.Ir.expr ->
  cls
(** Class of an index under the enclosing parallel loop variables
    [par_vars], sequential loop variables [seq_vars] and the thread-tainted
    scalars [thread_vars] ({!Taint.thread_dependent}).  Thread-linear is a
    parallel variable alone, [v + e], [e + v] or [v - e] with [e] free of
    thread-dependent variables; any other thread-dependent index is
    thread-strided. *)

val affine_lane : Lime_ir.Ir.expr -> (int * int) option
(** [affine_lane e] recognizes an index of the shape [v*m + c] (either
    operand order, with [m >= 2], [0 <= c < m]) and returns [(m, c)]: the
    lane within an [m]-aligned group is statically known even though the
    index itself is dynamic.  Unrolled tiled loops produce exactly these
    indices, which is what makes rewritten kernels vectorizable. *)

val resolve :
  (string, string * Lime_ir.Ir.expr list) Hashtbl.t ->
  Lime_ir.Ir.expr ->
  Lime_ir.Ir.expr list ->
  (string * Lime_ir.Ir.expr list) option
(** [resolve views base suffix] walks an access [base(suffix...)] through
    the view table ([var -> (root, prefix indices)]) and nested loads to
    [(root array, full index list)].  A variable that is not a view is its
    own root; a base that is neither a variable nor a load gives [None]. *)
