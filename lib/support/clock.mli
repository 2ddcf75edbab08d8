(** The one clock for durations, deadlines and rolling windows. *)

val now_s : unit -> float
(** CLOCK_MONOTONIC in seconds from an arbitrary origin: wall time that
    never jumps, unlike the time of day, and keeps running while the
    process waits, unlike CPU time. *)
