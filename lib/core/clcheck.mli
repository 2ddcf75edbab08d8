(** Lightweight static validator for generated OpenCL C (there is no
    OpenCL driver in this environment): lexical well-formedness, balanced
    brackets, float-literal syntax, declare-before-use against the OpenCL
    builtin vocabulary, and a single [__kernel] entry point. *)

type issue = { is_line : int; is_msg : string }

type result = { issues : issue list }

val ok : result -> bool

val check : string -> result
(** Run all checks over a kernel source. *)

val report : result -> string
