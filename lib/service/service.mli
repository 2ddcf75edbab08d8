(** The compile-and-run service: content-addressed kernel cache +
    persistent autotune store + metrics, behind one façade.

    A {!t} turns the one-shot {!Lime_gpu.Pipeline.compile} into a reusable
    service: repeated requests for the same (source, worker, config) are
    served from a bounded in-memory LRU ({!Kcache}); when a [cache_dir] is
    given, compiled artifacts are also persisted content-addressed on disk
    (so a *second process* starts warm) and tuning results go through the
    {!Tunestore}.  {!instrument} wires the {!Metrics} registry into
    {!Lime_gpu.Pipeline.compile}, {!Lime_runtime.Engine} firings and
    {!Lime_runtime.Comm.phases}.

    A service created with [~jobs:n] owns a {!Pool} of [n - 1] worker
    domains: {!compile_many} fans a batch across them (the sharded
    {!Kcache}, {!Metrics} and {!Trace} are all domain-safe) and a {!sweep}
    miss prices the eight Fig 8 configurations in parallel.  The sweep,
    the beam search and the placement search share one replay-or-search
    path through the {!Tunestore}: a stored choice is re-priced alone, a
    miss searches and stores its winner.  With the default
    [~jobs:1] no domains are spawned and every entry point behaves exactly
    like the sequential service it replaces. *)

type t

type origin =
  | Memory  (** served from the in-process LRU *)
  | Disk  (** deserialized from the content-addressed artifact store *)
  | Compiled  (** freshly compiled (and persisted when [cache_dir] is set) *)

val origin_name : origin -> string

val create :
  ?cache_dir:string ->
  ?capacity:int ->
  ?registry:Metrics.registry ->
  ?jobs:int ->
  unit ->
  t
(** [cache_dir] enables the on-disk artifact store ([<dir>/kernels/]) and
    the tunestore ([<dir>/tune/]); without it the service is purely
    in-memory.  [capacity] bounds the LRU (default 64).  [registry]
    defaults to {!Metrics.default}.  [jobs] (default 1) sizes the domain
    pool for batch compilation and parallel sweeps; the kernel cache is
    striped [jobs] ways, so [~jobs:1] keeps the exact sequential LRU
    semantics. *)

val cache : t -> Lime_gpu.Pipeline.compiled Kcache.t
val tunestore : t -> Tunestore.t option
val registry : t -> Metrics.registry

val pool : t -> Pool.t
val jobs : t -> int
(** The pool's parallelism (1 = sequential, no worker domains). *)

val queue_depth : t -> int
(** Jobs submitted to the pool but not yet claimed by a worker — the
    admission-queue gauge the compile daemon ({!Lime_server.Server})
    exports as [lime_server_queue_depth]. *)

val shutdown : t -> unit
(** Stop and join the service's worker domains (idempotent).  Only batch
    entry points require the pool; {!compile} keeps working after. *)

val request_digest :
  ?device:string ->
  ?config:Lime_gpu.Memopt.config ->
  worker:string ->
  string ->
  Digest.t
(** The cache key {!compile} uses for this request. *)

val compile :
  t ->
  ?config:Lime_gpu.Memopt.config ->
  ?name:string ->
  worker:string ->
  string ->
  Lime_gpu.Pipeline.compiled
(** Cached {!Lime_gpu.Pipeline.compile}. *)

val compile_ex :
  t ->
  ?config:Lime_gpu.Memopt.config ->
  ?name:string ->
  worker:string ->
  string ->
  Lime_gpu.Pipeline.compiled * origin
(** Like {!compile}, also reporting where the artifact came from. *)

type request = {
  rq_source : string;
  rq_worker : string;
  rq_config : Lime_gpu.Memopt.config;
  rq_name : string;
}

val request :
  ?config:Lime_gpu.Memopt.config ->
  ?name:string ->
  worker:string ->
  string ->
  request

val compile_many :
  t ->
  request list ->
  (Lime_gpu.Pipeline.compiled, Lime_support.Diag.t) result list
(** Serve a batch of requests across the service's domain pool.  Results
    are in request order; duplicates within the batch are coalesced onto
    one compile (counted as [coalesced] in {!stats}).  Each request fails
    independently: a compiler diagnostic (or any other exception, wrapped
    as a [Runtime] diagnostic) comes back as [Error] for that request and
    never aborts the rest of the batch. *)

val sweep :
  t ->
  Gpusim.Device.t ->
  device_key:string ->
  digest:Digest.t ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  Gpusim.Autotune.entry list * [ `Hit | `Miss ]
(** Tunestore-aware Fig 8 sweep ({!Gpusim.Autotune.sweep}), on the same
    replay-or-search path as {!beam_schedule} and {!sched_placement}: with
    a [cache_dir], a repeated sweep of the same kernel digest on the same
    [device_key] re-times only the stored best configuration (one
    {!Gpusim.Autotune.time_config_ex} call, [`Hit]); a miss prices all
    eight, in parallel on the pool when [~jobs > 1] (the ranking is the
    sequential sweep's), and stores the winner.  Every entry carries its
    launch's counters, so a hit and a miss report the winner's headline
    from the same pricing.  Without a [cache_dir] every call is a [`Miss]. *)

val beam_schedule :
  t ->
  Gpusim.Device.t ->
  device_key:string ->
  digest:Digest.t ->
  ?width:int ->
  ?depth:int ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  Lime_rewrite.Search.candidate
  * [ `Replayed | `Searched of Lime_rewrite.Search.outcome ]
(** Tunestore-aware beam search over the rewrite catalog
    ({!Lime_rewrite.Search.search}).  With a [cache_dir], the winning
    schedule persists as a tunestore record (device key suffixed
    [".beam"], so beam records never collide with Fig 8 sweep records); a
    warm call replays the stored sequence ({!Lime_rewrite.Search.replay} —
    one cost-model evaluation, [`Replayed]) instead of re-searching.  A
    stored schedule that no longer applies falls back to a fresh search.
    Without a [cache_dir] every call searches ([`Searched]).  The service
    keeps the {!Lime_rewrite.Search.memo} of the last kernel it searched,
    so searching one kernel on several devices in a row walks and
    analyzes each rewritten body once; concurrent searches never share
    one. *)

val sched_placement :
  t ->
  digest:Digest.t ->
  firings:int ->
  Lime_sched.Probe.stage list ->
  Lime_sched.Search.candidate
  * [ `Replayed | `Searched of Lime_sched.Search.outcome ]
(** Tunestore-aware multi-device placement search
    ({!Lime_sched.Search.search}).  With a [cache_dir], the winning
    placement persists as a tunestore record under the fixed
    pseudo-device key ["multi.sched"] (a placement spans all devices, so
    no single device name applies); a warm call replays the stored spec
    ({!Lime_sched.Search.replay} — one cost-model evaluation,
    [`Replayed]) instead of re-searching.  A stored placement that no
    longer fits the probed pipeline falls back to a fresh search.
    Without a [cache_dir] every call searches ([`Searched]). *)

val stats : t -> Kcache.stats

val disk_hits : t -> int
(** Artifacts served from the on-disk store (the second cache tier). *)

val expose : t -> string
(** Refresh the cache gauges and render the service's registry
    ({!Metrics.expose}). *)

val instrument : ?registry:Metrics.registry -> unit -> unit
(** Install the metrics observers (keyed ["metrics"]) in
    {!Lime_gpu.Pipeline.compile_hooks}, {!Lime_runtime.Engine.firing_hooks}
    and {!Lime_support.Beam.hooks}: compile counts/latency histograms,
    firing counters, one histogram per {!Lime_runtime.Comm.phases} leg,
    and one family per search, [lime_rewrite_*] and [lime_sched_*]
    (searches, cost-model evaluations, improvements over the baselines,
    stored-choice replays, best modeled time).  Keyed registration makes this idempotent and lets it
    compose with the tracer's observers ({!Trace.install}) — metrics and
    tracing can be on at once. *)

val uninstrument : unit -> unit
(** Remove the observers {!instrument} registered. *)
