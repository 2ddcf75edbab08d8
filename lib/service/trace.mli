(** Span-based end-to-end tracer with Chrome trace-event export.

    A {!t} records a tree of named, categorized spans with key/value
    attributes on one timeline.  Two kinds of span coexist:

    - {b wall-clock spans} ({!begin_span}/{!end_span}/{!with_span}) measure
      real elapsed work — the compiler pipeline phases, cache lookups,
      artifact stores;
    - {b model-time spans} ({!complete}) carry an explicit start and
      duration — the simulated communication legs and kernel time of an
      offloaded firing, which never ran on a wall clock.

    Timestamps are microseconds of {!Lime_support.Clock} wall time since
    tracer creation, plus a skew {!advance_to} raises past model-time
    spans.  They never decrease, so exported traces are always
    well-formed.  The export format is Chrome
    trace-event JSON ("X" complete events), loadable in [chrome://tracing]
    and {{:https://ui.perfetto.dev}Perfetto}; {!summary} and {!flame} are
    terminal-friendly views of the same data.

    {!default} is the process-wide tracer the instrumentation hooks write
    to.  It starts {e disabled}: every recording call on a disabled tracer
    is a cheap no-op, so instrumented code paths cost nothing until
    tracing is switched on.  Explicit {!create}d instances (for tests)
    start enabled.

    {b Thread safety}: a tracer may be written from any domain.  Each
    domain records into its own span buffer with its own open-span stack
    (so nesting never crosses domains); span ids come from one atomic
    counter and reading the clock takes no lock.  Readers ({!spans},
    export, {!summary}, {!flame}) merge the per-domain buffers into a
    single timeline ordered by span id — global begin order. *)

type t

type span = {
  sp_id : int;
  sp_parent : int;  (** [-1] for roots *)
  sp_name : string;
  sp_cat : string;
  mutable sp_args : (string * string) list;
  sp_begin_us : float;
  mutable sp_end_us : float;  (** negative while still open *)
}

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh, enabled tracer.  [clock] returns seconds (default
    {!Lime_support.Clock.now_s}); timestamps are relative to creation. *)

val default : t
(** The process-wide tracer; starts disabled. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val reset : t -> unit
(** Drop all recorded spans, re-zero the timeline, zero the dropped-span
    counter, and mint a fresh trace id. *)

(** {1 Trace identity}

    Every tracer carries a 128-bit trace id (32 lowercase hex characters)
    minted at creation.  The id travels across the [limec --connect] ⇄
    [limed] wire so client and daemon spans belong to one distributed
    trace, and it is stamped into the Chrome export
    ([otherData.traceId]). *)

val trace_id : t -> string
(** This tracer's 128-bit trace id as 32 lowercase hex characters. *)

val valid_trace_id : string -> bool
(** [true] iff the string is exactly 32 lowercase hex characters. *)

val fresh_trace_id : unit -> string
(** Mint a new random 128-bit trace id (32 lowercase hex characters). *)

(** {1 Span retention}

    Long-running processes (the [limed] daemon traces always-on) must not
    accumulate spans without bound: each domain's buffer is capped.  When
    a buffer outgrows the cap, the oldest closed spans are dropped down to
    7/8 of the cap and counted in {!dropped_spans} (exported by the server
    as the [lime_trace_dropped_spans] metric).  Open spans are never
    dropped. *)

val retention : t -> int
(** Per-domain retained-span cap; [0] means unbounded.  Default 65536. *)

val set_retention : t -> int -> unit

val dropped_spans : t -> int
(** Total spans evicted by the retention cap since creation/{!reset}. *)

val now_us : t -> float
(** Current trace time in microseconds.  Never decreases, and never reads
    below a mark passed to {!advance_to}; two calls may read the same. *)

(** {1 Recording} *)

val begin_span :
  t -> ?cat:string -> ?args:(string * string) list -> ?ts_us:float ->
  string -> unit
(** Open a span nested under the innermost open span.  [ts_us] overrides
    the wall clock (for model-time timelines). *)

val end_span :
  t -> ?args:(string * string) list -> ?ts_us:float -> string -> unit
(** Close the innermost open span with this name (closing any nested
    still-open spans at the same instant); extra [args] are merged in.
    Unknown names are ignored. *)

val with_span :
  t -> ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [with_span t name f] wraps [f] in a span; exception-safe. *)

val complete :
  t -> ?cat:string -> ?args:(string * string) list -> ?ts_us:float ->
  dur_us:float -> string -> unit
(** Record an already-delimited span (explicit start and duration) under
    the innermost open span — the model-time primitive. *)

val advance_to : t -> float -> unit
(** Move the trace clock forward to at least this microsecond mark, so
    wall-clock events recorded after a batch of model-time spans land
    after them. *)

val current_span_id : t -> int
(** Id of the calling domain's innermost open span, or [-1] when none is
    open (or the tracer is disabled) — the parent to propagate in an
    outgoing trace context. *)

(** {1 Cross-process span hand-off}

    The daemon collects the spans a request recorded, serializes them
    with {!spans_to_wire} (timestamps rebased so 0 = request admission),
    and ships the buffer back inside the Result frame.  The client
    decodes with {!spans_of_wire} and {!graft}s them under its own
    request span, yielding one merged, well-nested timeline. *)

val collect : t -> (unit -> 'a) -> 'a * span list
(** [collect t f] runs [f] and returns its result together with every
    span the {e calling domain} recorded during [f], in begin order.
    Spans opened before [f] (still-enclosing parents) are excluded. *)

val graft : t -> ?at_us:float -> parent:int -> span list -> int
(** [graft t ~parent spans] inserts foreign spans into this tracer:
    every id is re-minted locally, parent links are rewired through the
    id map (foreign roots and dangling parents attach to [parent]),
    and timestamps — interpreted as microseconds relative to the foreign
    buffer's origin — are offset by [at_us] (default: the current trace
    time).  The clock is advanced past the last grafted end so subsequent
    local events stay monotonic.  Returns the number of spans grafted. *)

val spans_to_wire : span list -> string
(** Serialize a span buffer to the compact binary wire form (at most
    1,000,000 spans; extras are silently truncated). *)

val spans_of_wire : string -> (span list, string) result
(** Total decoder for {!spans_to_wire}'s format: any malformed buffer —
    truncation anywhere, bad format version, NaN timestamps, trailing
    bytes — yields [Error]. *)

(** {1 Inspection and export} *)

val spans : t -> span list
(** All recorded spans in begin order (open spans included). *)

val open_depth : t -> int
(** Number of currently open spans (0 when balanced). *)

val to_chrome_json : t -> string
(** The whole trace as Chrome trace-event JSON: an object with a
    [traceEvents] array of "X" complete events sorted by timestamp (open
    spans are closed at the current instant).  Loadable in
    [chrome://tracing] / Perfetto. *)

val write_chrome : t -> string -> unit
(** {!to_chrome_json} to a file. *)

val summary : ?top:int -> t -> string
(** The [top] (default 10) spans by inclusive duration, one aligned row
    each: inclusive time, share of the timeline, count, name. Spans of the
    same name aggregate. *)

val flame : t -> string
(** Indented tree of the whole trace — span name, category, inclusive
    duration — a poor man's flame graph for terminals. *)

(** {1 Instrumentation} *)

val install : ?tracer:t -> unit -> unit
(** Register trace observers (key ["trace"]) in
    {!Lime_gpu.Pipeline.phase_hooks} and {!Lime_runtime.Engine.firing_hooks}:
    every compile phase becomes a wall-clock span ([pipeline.<phase>]
    under [pipeline.compile]) and every firing becomes a model-time span
    ([firing.<task>]) with one child span per {!Lime_runtime.Comm.phases}
    leg ([comm.java_marshal] … [comm.host]); device firings attach the
    launch attributes from {!Gpusim.Model.launch_attrs}.  Each search
    reporting through {!Lime_support.Beam.hooks} ([rewrite], [sched])
    traces as a [<search>.search] span with one instant [<search>.level]
    child per beam level and [<search>.replay] instants for replays of a
    stored choice.  Keyed registration composes with the metrics observers and is
    idempotent. *)

val with_observers : ?tracer:t -> (unit -> 'a) -> 'a
(** [with_observers ~tracer f] runs [f] with the trace observers installed
    (and the tracer enabled), then uninstalls them and restores the
    tracer's previous enabled state — the scoped form of {!install} for
    tests and one-shot tooling. *)
