(** JSON text shared by every emitter and reader: the Chrome trace
    export, the daemon's [/statusz] and access log, the flight recorder's
    dump and the BENCH JSON file are written with {!escape}, and read back
    (by [Benchjson.of_json] and the tests) with {!parse}. *)

val escape : string -> string
(** The body of a JSON string literal for [s]: quotes, backslashes, [\n],
    [\t] and [\r] get their short escapes, other control characters
    [\u00XX]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** The one JSON value that is the whole of the text (RFC 8259), or an
    error naming the byte offset where it went wrong.  Total: strings
    reject raw control characters, [\u] escapes take exactly four hex
    digits and decode to UTF-8 (surrogate pairs joined, a lone surrogate
    refused), numbers follow the RFC grammar, and arrays and objects nest
    at most 512 deep, so hostile input fails in time linear in its
    length. *)

val member : string -> t -> t option
(** [member key v] is the first member [key] of the object [v]; [None]
    when [v] has no such member or is not an object. *)
