(** JSON text shared by every emitter: the Chrome trace export, the
    daemon's [/statusz] and access log, and the BENCH JSON file. *)

val escape : string -> string
(** The body of a JSON string literal for [s]: quotes, backslashes, [\n],
    [\t] and [\r] get their short escapes, other control characters
    [\u00XX]. *)
