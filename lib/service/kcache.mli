(** Bounded LRU cache of compiled artifacts, sharded for concurrency,
    with accounting.

    The service keeps {!Lime_gpu.Pipeline.compiled} values in one of these,
    keyed by {!Digest.t}; the container itself is polymorphic so it can be
    unit-tested without running the compiler.  Every lookup is counted
    (hit/miss/eviction/coalesced/contended) so cache effectiveness and lock
    contention are observable rather than inferred from timing.

    {b Thread safety}: the key space is split across [stripes]
    mutex-guarded shards; all operations may be called from any domain.
    The global capacity is preserved — it is distributed over the stripes,
    so the total entry count never exceeds [capacity].  With the default
    [~stripes:1] the cache behaves exactly like a single sequential LRU
    (deterministic eviction order); the parallel compile service uses
    multiple stripes so concurrent lookups of different keys rarely share
    a lock.  On a miss the computation runs {e outside} the stripe lock;
    two domains missing the same key concurrently may both compute, and
    the first insert wins (harmless for a deterministic compiler).

    Batch layers coalesce duplicate in-flight requests themselves
    ({!Service.compile_many} runs one computation per key) and account
    the duplicates with {!note_coalesced}, as [coalesced], not as hits. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable coalesced : int;
      (** duplicate in-flight requests served by one computation *)
  mutable contended : int;
      (** stripe-lock acquisitions that found the lock already held *)
}

type 'a t

val create : ?capacity:int -> ?stripes:int -> unit -> 'a t
(** An empty cache holding at most [capacity] entries (default 64;
    clamped to at least 1) split over [stripes] shards (default 1; clamped
    to [1..capacity] so no stripe has zero capacity). *)

val capacity : 'a t -> int
val stripes : 'a t -> int
val length : 'a t -> int
val stats : 'a t -> stats

val mem : 'a t -> string -> bool
(** Membership test; does not touch recency or counters. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_add t key f] returns the cached value for [key] (a hit,
    refreshing its recency) or computes it with [f], inserts it, and evicts
    the least-recently-used entry of the key's stripe if that stripe is
    over capacity (a miss).  If [f] raises, nothing is inserted and the
    miss is still counted. *)

val note_coalesced : 'a t -> int -> unit
(** Account [n] additional coalesced requests — used by batch layers (such
    as {!Service.compile_many}) that deduplicate keys themselves before
    dispatching to the cache. *)

val keys_by_recency : 'a t -> string list
(** Cached keys, most recently used first (global recency order across all
    stripes — for tests and introspection). *)

val clear : 'a t -> unit
(** Drop all entries; counters are preserved. *)
