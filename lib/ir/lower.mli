(** Lowering from the typed AST to the mid-level IR: map expressions
    become {!Ir.SParFor} loops over their input with the mapped body
    inlined, reductions become {!Ir.SReduce}, canonical counted loops
    become {!Ir.SFor}, and effectful compound expressions are flattened
    into statements.  Semantics-preserving by construction. *)

val lower_program : Lime_typecheck.Tast.tprogram -> Ir.modul
(** [lower_program prog] lowers every method of every class of [prog]
    and collects the classes' fields and their initializers.
    @raise Lime_support.Diag.Error_exn on a construct lowering rejects. *)
