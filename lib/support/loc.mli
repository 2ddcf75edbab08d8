(** Source locations for the Lime front end. *)

type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 0-based column *)
  offset : int;  (** byte offset from the start of the source *)
}

type t = {
  source : string;  (** source name, e.g. a file name or ["<inline>"] *)
  start_pos : pos;
  end_pos : pos;
}

val start_pos_of : t -> pos
val end_pos_of : t -> pos

val dummy : t
(** The unknown location; {!is_dummy} recognizes it. *)

val is_dummy : t -> bool
val make : source:string -> start_pos:pos -> end_pos:pos -> t

val of_positions : string -> int * int * int -> int * int * int -> t
(** [of_positions source (l1,c1,o1) (l2,c2,o2)] builds a span. *)

val merge : t -> t -> t
(** [merge a b] spans from the start of [a] to the end of [b]; dummy
    locations are absorbed. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
