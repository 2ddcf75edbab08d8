(** Small utilities shared across the compiler and runtime. *)

(** {1 Integers and floats} *)

val round_up : int -> int -> int
(** [round_up n k] rounds [n] up to the next multiple of [k] ([n] itself
    when [k <= 0]). *)

val ceil_div : int -> int -> int
(** [ceil_div n k] is ⌈n / k⌉ for positive [k]. *)

val is_pow2 : int -> bool

val next_pow2 : int -> int
(** Next power of two ≥ [n] (for [n ≥ 1]). *)

val clamp : int -> int -> int -> int
(** [clamp lo hi v] is [v] limited to [\[lo, hi\]]. *)

val clampf : float -> float -> float -> float
(** [clamp] on floats. *)

val geomean : float list -> float
(** Geometric mean of a nonempty list of positive floats. *)

(** {1 Strings} *)

val starts_with : prefix:string -> string -> bool
val contains_substring : sub:string -> string -> bool

val count_lines : string -> int
(** Number of ['\n'] + 1 for a nonempty string, 0 for [""]. *)

val bytes_to_string : int -> string
(** Human-readable byte sizes ([64KB], [3MB], [100B]), matching the
    paper's Table 3 style. *)
