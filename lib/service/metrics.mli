(** A small counter/gauge/histogram registry with deterministic text
    exposition.

    The exposition format is Prometheus-flavoured text: metrics sorted by
    name, each prefixed by a [# HELP] line (present for every metric,
    registered with [~help] or not, with backslash/newline escaped) and a
    [# TYPE] line, histograms as cumulative [_bucket{le=..}] lines ending
    in the [+Inf] bucket plus [_sum] and [_count] — the canonical order.
    Deterministic output (stable ordering, fixed bucket bounds) is what
    lets tests snapshot it.

    Registries are explicit values; {!default} is the process-wide one the
    instrumentation hooks write to.

    {b Thread safety}: every operation may be called from any domain.
    Registration is guarded by one registry mutex; each metric carries its
    own mutex, so concurrent updates to the same counter/histogram never
    lose increments and updates to different metrics never contend.
    {!expose} and {!reset} snapshot under the same locks, so an exposition
    taken mid-update is always internally consistent per metric. *)

type registry
type counter
type gauge
type histogram
type summary

val create : unit -> registry

val default : registry
(** The process-wide registry used by {!Service.instrument}. *)

val counter :
  registry -> ?help:string -> ?labels:(string * string) list -> string ->
  counter
(** Register (or retrieve) the counter of that name.  Re-registration with
    the same name returns the existing metric; registering a name already
    used by a different metric kind raises [Invalid_argument].

    [labels] are {e static} key/value pairs baked into the metric's
    identity: the sample renders as [name{k="v",...} value] (values
    escaped per the text format), and several label sets of one family
    share a single [# HELP]/[# TYPE] block — e.g. the server's
    [lime_build_info{version=...,protocol=...,ocaml=...} 1]. *)

val gauge :
  registry -> ?help:string -> ?labels:(string * string) list -> string ->
  gauge

val histogram :
  registry -> ?help:string -> ?buckets:float list -> string -> histogram
(** Buckets are upper bounds in ascending order; a [+Inf] bucket is always
    appended.  Default buckets span 1µs..1s decades — sized for the
    compile and communication latencies this repo measures. *)

val summary :
  registry -> ?help:string -> ?alpha:float -> ?quantiles:float list ->
  ?windows:(string * float) list -> ?clock:(unit -> float) -> string ->
  summary
(** Register (or retrieve) a streaming-quantile summary backed by a
    {!Sketch.window} ring.  Exposition emits one
    [name{quantile="q"} v] sample per quantile over {e all} values ever
    observed, plus one [name{window="label",quantile="q"} v] sample per
    rolling window in [windows] (label, span in seconds — default
    [["1m", 60.; "5m", 300.; "1h", 3600.]]), then [_sum] and [_count]; empty sketches emit no
    quantile samples.  [alpha] is the sketch's relative-error bound
    (default {!Sketch.default_alpha}); [clock] supplies "now" in seconds
    for window rotation (default {!Lime_support.Clock.now_s}; tests pass a
    fake). *)

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit

(** Accumulate into a gauge — used for float-valued totals (bytes,
    transactions) that a [counter]'s int value cannot hold. *)
val add : gauge -> float -> unit

val observe : ?exemplar:string -> histogram -> float -> unit
(** Record a value.  [exemplar] is a trace id: the bucket the value lands
    in remembers the latest [(value, trace_id)] pair and exposition
    renders it as an OpenMetrics suffix
    [name_bucket{le="0.1"} 3 # {trace_id="..."} 0.043], linking a scraped
    tail bucket to a concrete trace. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val observe_summary : summary -> float -> unit
val summary_count : summary -> int

val summary_quantile : summary -> ?window_s:float -> float -> float option
(** [summary_quantile s q]: the cumulative quantile estimate (all values
    ever observed); with [~window_s] the estimate over the last
    [window_s] seconds.  [None] when the covering sketch is empty. *)

val expose : registry -> string
(** The full registry as deterministic exposition text. *)

val reset : registry -> unit
(** Zero every metric's value; registrations are kept. *)
