(** The compile daemon's frame codec.

    Every message on the socket is one length-prefixed binary frame:

    {v
      +----------------+---------------------------------+
      | u32 BE length  | payload (length bytes)          |
      +----------------+---------------------------------+
      payload = u8 tag, then tag-specific fields:
        u8/u16/u32   big-endian unsigned integers
        f64          big-endian IEEE-754 bits
        string       u32 BE byte count, then the bytes (no terminator)
    v}

    The codec is hand-written (no dependencies beyond the stdlib), total —
    {!decode} never raises, every malformed input maps to an {!error} —
    and bounded: a declared payload length above {!max_frame} is rejected
    {e before} any allocation, so a hostile length prefix cannot take the
    server down.

    {!reader} is the incremental side: feed it whatever [read] returned
    and pull complete frames out; partial frames simply wait for more
    bytes. *)

val version : int
(** The protocol version spoken by this build, exchanged in
    [Hello]/[Hello_ack].  A server accepts only this exact version.
    Every frame has one layout: a Compile frame carries a u8
    trace-presence flag (then the {!trace_ctx} fields when set) and the
    placement SPEC string ([""] = none); a Result frame always carries
    a u32 span count (at most 1,000,000) and then each span: u32 id, u32
    parent ([0xFFFF_FFFF] = none), f64 begin and end, name, category,
    u16 argument count and each key/value string.  A NaN timestamp is
    [Malformed]. *)

val max_frame : int
(** Upper bound on a payload's declared length (16 MiB). *)

type trace_ctx = {
  tc_trace_id : string;
      (** 128-bit distributed trace id as 32 lowercase hex characters
          (not validated by the codec) *)
  tc_parent_span : int;
      (** span id of the client-side parent span; [-1] for none (wire
          sentinel [0xFFFF_FFFF]) *)
}

type compile_req = {
  cr_id : int;  (** request id, echoed on the reply (u32) *)
  cr_deadline_ms : int option;
      (** per-request deadline, milliseconds from admission; [None] = no
          deadline.  A deadline of [0] can never be met (dispatch happens
          strictly after admission) and is the deterministic way to
          exercise the [Deadline_exceeded] path. *)
  cr_name : string;  (** source name, for diagnostics *)
  cr_worker : string;
  cr_config : string;  (** configuration name, e.g. ["all"] *)
  cr_source : string;
  cr_trace : trace_ctx option;
      (** propagated trace context *)
  cr_placement : string option;
      (** placement provenance: the [task=device,...] SPEC
          ({!Lime_sched.Placement.to_spec}) the client runs the artifact
          under; [None] encodes as [""] *)
}

type artifact = {
  ar_id : int;
  ar_origin : string;  (** cache provenance: [memory]/[disk]/[compiled] *)
  ar_digest : string;  (** content-addressed request digest, hex *)
  ar_kernel : string;  (** kernel name *)
  ar_parallel : bool;
  ar_opencl : string;  (** the compiled OpenCL, byte-identical to local *)
  ar_placements : string;  (** [Memopt.describe] of the decisions *)
  ar_spans : Lime_service.Trace.span list;
      (** the spans the server recorded for this request, timestamps in
          microseconds relative to admission, ready for
          {!Lime_service.Trace.graft}; [[]] when the request was not
          traced *)
}

type error_code =
  | Overloaded  (** admission queue full; retry after the hint *)
  | Deadline_exceeded
  | Compile_error  (** the rendered compiler diagnostic is in [er_msg] *)
  | Protocol_error
  | Draining  (** server is shutting down and accepts no new work *)

val error_code_name : error_code -> string

type server_error = {
  er_id : int;  (** id of the request this answers; 0 if none *)
  er_code : error_code;
  er_retry_after_ms : int;  (** only meaningful for [Overloaded] *)
  er_msg : string;
}

type drain_ack = {
  da_id : int;
  da_completed : int;  (** requests finished while draining *)
  da_dropped : int;  (** in-flight requests dropped (0 on a clean drain) *)
}

type frame =
  | Hello of int  (** client's first frame: protocol version *)
  | Hello_ack of int
  | Compile of compile_req
  | Result of artifact
  | Err of server_error
  | Stats of int  (** request the metrics exposition *)
  | Stats_reply of int * string
  | Drain of int  (** stop accepting, finish in-flight, ack, exit *)
  | Drain_ack of drain_ack

type error =
  | Oversized of int  (** declared payload length (beyond {!max_frame}) *)
  | Unknown_tag of int
  | Malformed of string  (** truncated field, trailing bytes, bad code *)

val error_to_string : error -> string

val encode : frame -> string
(** The full frame: length prefix plus payload. *)

val decode : string -> (frame, error) result
(** Decode one payload (the bytes {e after} the length prefix). *)

(** {1 Incremental framing} *)

type reader

val reader : unit -> reader

val feed : reader -> bytes -> int -> unit
(** [feed r buf n] appends the first [n] bytes of [buf]. *)

val feed_string : reader -> string -> unit

val next : reader -> (frame option, error) result
(** The next complete frame, [Ok None] while more bytes are needed.
    After [Error _] the stream is out of sync and the connection should
    be dropped. *)

val buffered : reader -> int
(** Bytes fed but not yet consumed by {!next}. *)
