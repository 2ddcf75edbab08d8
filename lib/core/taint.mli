(** Thread-dependence analysis: the variables of a kernel body whose
    values depend on the parallel index, which the memory optimizer
    ({!Memopt.analyze}) and the launch profiler read to tell a per-thread
    index from one shared across threads.  The rules are set out in the
    implementation. *)

val thread_dependent : Lime_ir.Ir.stmt list -> (string, unit) Hashtbl.t
(** [thread_dependent body] is the set of [body]'s thread-dependent
    variables, the parallel index variables included: the least fixpoint
    of the taint rules over the whole body.  The table is the caller's. *)
