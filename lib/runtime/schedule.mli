(** Pipelined (double-buffered) firing schedule — the paper's §5.3 future
    work: overlap communication with computation across consecutive
    firings of a task pipeline. *)

type leg = {
  lg_resource : string;
      (** serialized resource the leg occupies ("host", "link:<dev>",
          "dev:<dev>") *)
  lg_seconds : float;
}

val overlapped_makespan : firings:int -> leg list list -> float
(** Wall-clock of [firings] identical passes through a placed pipeline
    (one leg list per stage, legs in execution order) with double-buffered
    overlap across firings: firing [f+1]'s legs run as soon as their
    resource frees, so transfers overlap kernels.  For three single-leg
    stages on distinct resources this is [fill + (n-1) * max], [fill]
    being one pass through the three. *)
