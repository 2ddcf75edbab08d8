(** Deterministic splitmix64 pseudo-random generator.

    Used by workload generators and the test suite so that every benchmark
    input and property-test corpus is reproducible across machines. *)

type t

val create : int -> t
val copy : t -> t

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]; [bound] must be positive. *)

val float01 : t -> float
(** Uniform in [\[0, 1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal via Box-Muller. *)

val byte : t -> int
(** Uniform in [\[0, 256)]. *)

val shuffle_in_place : t -> 'a array -> unit
