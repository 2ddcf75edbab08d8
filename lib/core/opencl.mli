(** OpenCL C code generation (paper §4.2, Fig 4/5).

    Emits the kernel source for an extracted kernel under a set of
    placement decisions: the robust thread loop, the bookkeeping struct,
    address-space qualifiers, local staging with barriers, image reads,
    vector types, and private arrays.  Validated by {!Clcheck} and the
    structural tests. *)

val generate : Kernel.kernel -> Memopt.decision list -> string
(** [generate kernel decisions] returns the OpenCL source text; its
    staging tiles are {!Kernel.group_size} wide. *)

val float_lit : float -> string
(** A C floating literal that always contains a ['.'] or an exponent: the
    text [Printf.sprintf "%.9g"] gives, with [".0"] added when that has
    neither. *)

val scratch_buffers : Kernel.kernel -> (string * Lime_ir.Ir.aty) list
(** Dynamically sized kernel intermediates the host must allocate (they
    appear as extra [__global] kernel parameters). *)
