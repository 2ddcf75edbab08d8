(** Analytic kernel profiler: the dynamic operation mix of a kernel launch,
    computed from the kernel IR and the actual argument shapes by weighting
    every site with its enclosing loop trip counts.  Exact for the affine
    benchmarks; data-dependent loops fall back to estimates and set
    {!t.p_approx}. *)

type access = {
  ac_root : string;
  ac_pattern : Lime_gpu.Access.cls;
      (** the leading index's {!Lime_gpu.Access.classify} class; accesses
          to per-thread spills of a private array are thread-strided *)
  ac_store : bool;
  ac_last_const : bool;  (** innermost index is a compile-time constant *)
  ac_count : float;  (** dynamic accesses over the whole launch *)
}
(** One access site class of a launch.  Immutable: a profile may be
    shared by every launch that has it (the rewrite search keeps one
    {!walk} per body). *)

type t = {
  p_items : float;  (** work items of the widest top-level parallel loop *)
  p_alu : float;
  p_div : float;
  p_sqrt : float;
  p_trans : float;
  p_double_ops : float;
  p_total_fp : float;
  p_accesses : access list;
  p_private_accesses : float;
  p_reduce_elems : float;
  p_last_parfor_items : float;
      (** trip count of the *last* top-level parallel loop — sizes the
          kernel result buffer *)
  p_approx : bool;  (** a trip count had to be estimated *)
}

val double_frac : t -> float
(** Fraction of floating-point work executed in double precision. *)

val profile :
  ?hoist_invariant:bool ->
  ?affine_lanes:bool ->
  ?thread_vars:(string, unit) Hashtbl.t ->
  Lime_gpu.Kernel.kernel ->
  Lime_gpu.Memopt.decision list ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  t
(** [profile kernel decisions ~shapes ~scalars] profiles one launch —
    {!under} [decisions] of a {!walk} whose private roots are the arrays
    [decisions] place in private memory; [shapes] gives each array
    argument's shape, [scalars] the value of scalar arguments appearing
    in loop bounds.

    [~hoist_invariant:true] (default false) models the backend compiler's
    loop-invariant code motion: an access whose address does not mention
    the innermost enclosing sequential loops is counted once per outer
    iteration.  [~affine_lanes:true] (default false) marks affine
    [v*m + c] innermost indices as const-lane accesses.  Both default off
    so the paper-fidelity Fig 8 path is bit-identical; the rewrite
    engine's scorer turns both on to see the effect of loop
    restructuring.

    [thread_vars] is the kernel body's [Lime_gpu.Taint.thread_dependent]
    table (read, never written); without it the profiler computes the
    table itself.  Passing the table {!Lime_gpu.Memopt.analyze} read
    gives the same profile with one dataflow pass instead of two. *)

type walk
(** A kernel's launch profile for every placement table at once: one walk
    of the body, every array in global memory, that keeps every root's
    accesses, and, for each root that may be private, its accesses in
    walk order. *)

val walk :
  ?hoist_invariant:bool ->
  ?affine_lanes:bool ->
  ?thread_vars:(string, unit) Hashtbl.t ->
  private_roots:string list ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  walk
(** [walk ~private_roots k ~shapes ~scalars] walks [k] once, with the
    flags and thread-dependence table of {!profile}; [private_roots] are
    the arrays a later {!under} may find in private memory. *)

val under : walk -> Lime_gpu.Memopt.decision list -> t
(** [under w decisions] is the profile of [w]'s kernel launched under
    [decisions]: the walk's access table without the arrays [decisions]
    place in private memory — in the order the table would fold had the
    walk never counted them — and those arrays' accesses summed in walk
    order as [p_private_accesses].  With no private array it is the
    walk's own profile, not a copy.
    @raise Invalid_argument when a private array was not one of the
    walk's [private_roots]. *)

val to_string : t -> string

val report : t -> string
(** Aligned multi-line profile report: work items, the FLOP mix
    (alu/div/sqrt/transcendental with shares, double-precision fraction)
    and the per-array access-pattern table (pattern, load/store,
    const-lane, dynamic count, share of all accesses). *)
