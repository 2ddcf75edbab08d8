(** Mergeable streaming quantile sketch with bounded relative error, plus
    rolling multi-resolution windows.

    The sketch is DDSketch-style: values map to logarithmic buckets
    [gamma^(i-1) < v <= gamma^i] with [gamma = (1 + alpha) / (1 - alpha)],
    so any value in bucket [i] is within relative error [alpha] of the
    bucket's midpoint estimate [2 gamma^i / (gamma + 1)].  A quantile query
    locates the bucket holding the target rank and returns that estimate —
    the answer is within [alpha] {e relative} error of the exact sample at
    the same rank, for any stream, any distribution.  Memory is bounded by
    the dynamic range of the data, not the stream length (about 1500
    buckets cover 1ns..10000s at the default 1% accuracy).

    Two sketches with the same [alpha] merge losslessly: the merged bucket
    counts equal those of a sketch fed both streams, so merge is
    associative and commutative — what lets per-interval sub-sketches
    aggregate into windows.

    {b Rank convention}: for [n] samples the quantile [q] targets the
    1-indexed rank [rank_of q n = max 1 (ceil (q * n))]; the exact
    counterpart of [quantile t q] is [sorted.(rank_of q n - 1)].  Tests
    and benches gate sketch-vs-exact agreement with this shared
    convention.

    {b Thread safety}: every operation may be called from any domain; each
    sketch (and each window ring) carries its own mutex, like
    {!Metrics}. *)

type t

val create : ?alpha:float -> unit -> t
(** A fresh sketch.  [alpha] is the relative-error bound (default
    {!default_alpha}); it must be in (0, 0.5).  Values at or below
    {!min_value} (latencies of ~a nanosecond, zero, or negative) land in
    an exact zero bucket and are reported as [0.0]. *)

val default_alpha : float
(** 0.01 — 1% relative error, the accuracy the bench gates quote. *)

val min_value : float
(** Smallest positively-bucketed value (1e-9); anything at or below it
    counts as zero. *)

val alpha : t -> float
val add : t -> float -> unit
val count : t -> int
val sum : t -> float

val min_seen : t -> float
(** Smallest value added; [nan] when empty. *)

val max_seen : t -> float
(** Largest value added; [nan] when empty. *)

val rank_of : float -> int -> int
(** [rank_of q n]: the 1-indexed rank quantile [q] targets in [n]
    samples — [max 1 (ceil (q * n))], clamped to [n]. *)

val quantile : t -> float -> float option
(** [quantile t q] for [q] in [0, 1]: the bucket-midpoint estimate of the
    sample at [rank_of q (count t)], within [alpha t] relative error of
    it ([0.0] exactly for samples in the zero bucket), clamped into
    [[min_seen t, max_seen t]].  [None] on an empty sketch.  Raises
    [Invalid_argument] for [q] outside [0, 1]. *)

val merge : into:t -> t -> unit
(** Accumulate a sketch into another ([into] grows, the source is
    unchanged).  Both must share the same [alpha] ([Invalid_argument]
    otherwise).  Merging is exact: bucket counts add. *)

val copy : t -> t
(** An independent snapshot. *)

val clear : t -> unit

(** {1 Rolling windows}

    A {!window} is a ring of per-interval sub-sketches: each wall-clock
    interval of [interval_s] seconds owns one slot, and a slot is lazily
    re-zeroed when its interval has rotated out of the ring.  Querying the
    last [w] seconds merges the slots covering them (including the
    current, partial interval), so a ring of 60 one-minute slots serves
    1m/5m/1h views of the same stream at once.  A windowed quantile
    carries the same [alpha] bound {e for the samples it covers}; window
    edges are quantized to whole intervals (a "1m" view spans the current
    partial interval plus one full one). *)

type window

val window :
  ?alpha:float -> ?interval_s:float -> ?slots:int -> clock:(unit -> float) ->
  unit -> window
(** [interval_s] (default 60.0) times [slots] (default 60) is the longest
    queryable span — one hour by default.  [clock] supplies "now" in
    seconds (the daemon passes {!Lime_support.Clock.now_s}; tests pass a
    manual clock).  Raises [Invalid_argument] for a non-positive interval or
    slot count. *)

val window_span_s : window -> float
(** [interval_s *. slots] — the longest queryable window. *)

val window_add : window -> float -> unit
(** Record into the current interval's slot (and the all-time totals). *)

val window_count : window -> int
val window_sum : window -> float
(** All-time totals, immune to rotation. *)

val window_total : window -> t
(** A snapshot of the all-time sketch (every value ever added, no
    rotation) — the cumulative counterpart of {!window_sketch}. *)

val window_clear : window -> unit
(** Zero every slot and the all-time totals. *)

val window_sketch : window -> float -> t
(** [window_sketch w span_s]: a merged snapshot of the slots covering the
    last [span_s] seconds (clamped to {!window_span_s}); query it with
    {!quantile}/{!count}/{!sum}. *)

val window_quantile : window -> float -> float -> float option
(** [window_quantile w span_s q] = [quantile (window_sketch w span_s) q]. *)
