(** Minimal hand-written HTTP/1.0 responder for the daemon's
    observability plane.

    Deliberately tiny, in the same no-dependencies spirit as {!Wire}: the
    server multiplexes a TCP listener into its existing select reactor,
    accumulates bytes per connection, calls {!parse} until a full request
    head arrives, serves exactly one response ({!to_string}) and closes —
    [Connection: close] semantics, which every scraper and [curl] speak.
    Request bodies, keep-alive, chunked encoding and header inspection
    are intentionally out of scope.

    {!parse} is total and bounded: heads larger than 16 KiB are rejected
    as {!Bad} before further buffering, so a hostile peer cannot grow the
    buffer without limit. *)

type request = {
  hr_meth : string;  (** request method, e.g. ["GET"] *)
  hr_path : string;  (** absolute path, query string stripped *)
  hr_query : string;  (** raw query string, [""] when absent *)
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

type parse_result =
  | Partial  (** request head incomplete — feed more bytes *)
  | Request of request
  | Bad of string  (** malformed or oversized head; answer 400 and close *)

val parse : string -> parse_result
(** Parse the accumulated input of one connection.  Returns {!Request}
    once the head is complete (terminated by a blank line; bare-LF
    tolerated); everything after the request line is ignored. *)

val response : ?content_type:string -> int -> string -> response
(** [response status body]; [content_type] defaults to
    [text/plain; charset=utf-8]. *)

val ok : ?content_type:string -> string -> response
(** [response 200]. *)

val to_string : response -> string
(** Serialize with [Content-Length] and [Connection: close] headers. *)

