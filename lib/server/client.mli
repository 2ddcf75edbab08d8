(** Synchronous client for the compile daemon.

    [connect] dials the daemon's Unix-domain socket and performs the
    hello handshake; the request helpers then run one
    request/reply exchange at a time.  Every receive is bounded by the
    connection's timeout, so a wedged daemon surfaces as a [Transport]
    failure instead of a hang.

    The raw {!send_frame}/{!recv_frame} primitives are exposed for
    pipelining tests and tooling that needs to put several requests on
    the wire before reading any reply. *)

type t

type failure =
  | Server_error of Wire.server_error
      (** the daemon answered with an error frame (overloaded, deadline
          exceeded, compile diagnostic, …) *)
  | Transport of string
      (** socket/framing trouble: connect refused, short read, timeout,
          unexpected frame *)

val failure_to_string : failure -> string

val connect : ?timeout_s:float -> string -> (t, string) result
(** Dial [socket] and say hello with {!Wire.version}; the daemon must
    ack that exact version.  [timeout_s] (default 30) bounds every
    subsequent receive. *)

val close : t -> unit

val compile :
  t ->
  ?deadline_ms:int ->
  ?config:string ->
  ?name:string ->
  ?trace:Wire.trace_ctx ->
  ?placement:string ->
  worker:string ->
  string ->
  (Wire.artifact, failure) result
(** Compile [source] on the daemon.  [config] is a configuration name
    (default ["all"]); [deadline_ms] asks the server to abandon the
    request if it cannot be answered in time.  [trace] propagates the
    caller's trace context: the daemon records its own spans under the
    given parent and returns them in [ar_spans] for the caller to
    {!Lime_service.Trace.graft} into one merged timeline.  [placement]
    reports the multi-device placement SPEC the artifact runs under;
    the daemon surfaces it in its access log. *)

val stats : t -> (string, failure) result
(** The daemon's metrics exposition ([lime_server_*] families included). *)

val drain : t -> (Wire.drain_ack, failure) result
(** Ask the daemon to drain: it finishes in-flight work, acks, and
    exits.  The ack arrives after every in-flight reply. *)

(** {1 Pipelining primitives} *)

val send_frame : t -> Wire.frame -> (unit, string) result
val recv_frame : t -> (Wire.frame, string) result
(** The next frame from the daemon, waiting at most the connection
    timeout. *)

val fresh_id : t -> int
(** The next request id (monotonic per connection). *)
