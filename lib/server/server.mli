(** [limed] — the networked compile daemon.

    A {!t} listens on a Unix-domain socket and multiplexes any number of
    {!Client}s onto one shared {!Lime_service.Service.t}: one resident
    process owns the warm kernel cache, the artifact store and the domain
    pool, and every [limec --connect] round-trip is served from it at
    cache speed instead of paying a cold process start.

    The loop is a single-threaded [select] reactor with real robustness
    semantics rather than best-effort queueing:

    - {b admission control} — at most [sc_max_inflight] requests may be
      queued or running; the next one is refused {e immediately} with an
      [Overloaded] reply carrying a retry-after hint (scaled from the
      EWMA of recent request latency), so a burst degrades into explicit
      backpressure instead of an unbounded queue;
    - {b deadlines} — a request may carry a client-chosen deadline
      (milliseconds from admission).  Work that would start past its
      deadline is cancelled in the queue ({!Lime_service.Pool.cancel});
      work already running is abandoned — the client gets
      [Deadline_exceeded] and the eventual result is discarded;
    - {b idle timeouts} — a connection with no traffic and no in-flight
      requests for [sc_idle_timeout_s] is closed, so leaked clients
      cannot pin the daemon's fd table;
    - {b graceful drain} — on SIGTERM (via {!drain}, which is
      signal-safe) or a [Drain] frame the server stops accepting,
      finishes every in-flight request, flushes every reply, answers the
      drainer with a [Drain_ack] carrying the completed/dropped counts,
      removes the socket and returns from {!run}.

    Every request flows through the {!Lime_service.Trace} timeline
    ([server.accept], [server.queue_wait], [server.request] spans) and
    the [lime_server_*] metric families of the service's registry.

    {b Distributed tracing}: a Compile frame may carry a
    {!Wire.trace_ctx}.  For such requests the worker collects every span
    the job records ({!Lime_service.Trace.collect}), rebases them to
    admission time, roots them under a synthetic [server.request] span
    (with a [server.queue_wait] child) and ships the serialized buffer
    home in the Result frame — the client grafts it under its own request
    span for one merged timeline.  Untraced requests skip all of it.

    {b Observability plane}: with [sc_http_port] set, a loopback TCP
    listener is multiplexed into the same reactor speaking just enough
    HTTP/1.0 ({!Http}) for six endpoints — [GET /metrics] (canonical
    exposition, including windowed latency quantiles, exemplar-annotated
    histograms and the [lime_slo_*] family), [GET /healthz] ([200 ok]
    normally, [503 draining] once a drain begins), [GET /statusz] (a
    JSON snapshot: uptime, in-flight table with trace ids, queue depth,
    EWMA service time, cache-tier hit counts, flight-recorder
    occupancy), [GET /alertz] (SLO burn rates and alert states, see
    {!Lime_service.Slo}) and [GET /debug/slow] / [GET /debug/errors]
    (the flight recorder's retained requests with their span trees, see
    {!Flight}).  The plane stays up while draining and for
    [sc_drain_grace_s] after the last request finishes, so load
    balancers observe the readiness flip.  With [sc_access_log] set,
    every answered request appends one JSON line correlated to its
    trace id. *)

type config = {
  sc_socket : string;  (** Unix-domain socket path *)
  sc_jobs : int;  (** pool parallelism of an owned service (default 1) *)
  sc_max_inflight : int;
      (** admission bound: queued + running requests (default 64) *)
  sc_idle_timeout_s : float;  (** idle-connection timeout (default 300) *)
  sc_cache_dir : string option;
  sc_cache_capacity : int;  (** LRU capacity of an owned service *)
  sc_http_port : int option;
      (** loopback TCP port for the observability plane; [Some 0] binds
          an ephemeral port (read it back with {!http_port}); [None] =
          no HTTP listener (default) *)
  sc_access_log : string option;
      (** append one JSON line per answered request to this file *)
  sc_drain_grace_s : float;
      (** seconds to keep serving the observability plane after a drain
          completes, before the process exits (default 0) *)
  sc_flight_capacity : int;
      (** bound of each {!Flight} ring — errored and slowest requests
          retained for /debug and the post-mortem dump (default 32;
          must be at least 1) *)
  sc_flight_dump : string option;
      (** append the flight recorder's JSONL post-mortem to this file on
          SIGQUIT ({!request_flight_dump}) and on graceful drain *)
  sc_slos : Lime_service.Slo.def list;
      (** objectives evaluated over answered requests; [[]] selects the
          built-in defaults (99% availability, 95% under 1s) *)
}

val default_config : socket:string -> config

val configs : (string * Lime_gpu.Memopt.config) list
(** The canonical configuration-name table shared by [limec] and the
    wire protocol (["global"], ["local+pad+vec"], …, ["all"]). *)

type t

val create : ?service:Lime_service.Service.t -> config -> t
(** Bind and listen on [sc_socket] (a stale socket file is replaced) and
    register the [lime_server_*] metrics.  When [service] is given the
    daemon serves from it and does not shut it down; otherwise it owns a
    fresh service built from the config.  Raises [Unix.Unix_error] if
    the socket cannot be bound.  Clients may connect as soon as this
    returns, even before {!run} starts picking requests up. *)

val service : t -> Lime_service.Service.t

val http_port : t -> int option
(** The bound observability-plane port ([None] when [sc_http_port] is
    [None]) — the actual port even when configured as ephemeral [0]. *)

val run : t -> unit
(** The reactor loop.  Blocks until a drain completes; single-shot
    ([Invalid_argument] on reuse). *)

val drain : t -> unit
(** Request a graceful drain from any domain or from a signal handler:
    stop accepting, finish in-flight work, flush, exit {!run}. *)

val request_flight_dump : t -> unit
(** Ask the reactor to append the flight recorder's retained entries to
    [sc_flight_dump] (a no-op when unset).  Async-signal-safe like
    {!drain} — this is what the SIGQUIT handler calls; the daemon keeps
    running afterwards. *)

type report = {
  rp_requests : int;  (** compile requests admitted *)
  rp_rejected : int;  (** refused with [Overloaded] *)
  rp_deadline : int;  (** answered [Deadline_exceeded] *)
  rp_completed : int;  (** answered [Result] or [Compile_error] *)
  rp_dropped : int;  (** reaped with no reply sent (dead client) *)
}

val report : t -> report
(** Lifetime totals; stable once {!run} has returned. *)
