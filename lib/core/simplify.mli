(** Kernel IR simplifier: constant folding, exact algebraic identities and
    dead declaration elimination — semantics-preserving under the
    interpreter's Java numerics (differential-tested across the whole
    benchmark suite). *)

val kernel : Kernel.kernel -> Kernel.kernel
(** Fold constants through {!Lime_ir.Interp.fold_literal}, apply exact
    identities, prune constant branches, then remove declarations and
    assignments of never-read variables whose initializers are pure,
    iterating to a fixpoint. *)
