(** Beam search over the rewrite catalog: sequences of {!Rewrite.step}s
    scored on one device by the analytic model, seeded with the eight
    Fig 8 sequences, deterministic.  How the work is shared — per state,
    per body, and across the searches of one kernel — is set out at the
    top of the implementation. *)

type candidate = {
  sc_sequence : string list;  (** rewrite names, in application order *)
  sc_state : Rewrite.state;
  sc_time_s : float;  (** modeled kernel time on the search device *)
}

type outcome = {
  so_best : candidate;
  so_baseline : candidate;  (** the empty schedule *)
  so_fig8_best : string * candidate;  (** best canned Fig 8 sequence *)
  so_evals : int;  (** cost-model evaluations spent *)
  so_depth_reached : int;  (** beam levels actually expanded *)
}

type memo
(** One kernel's device-independent search work: each structural
    attempt's outcome per (parent body, step), each body's kernel and
    facts — its analysis, its site table and its launch walk — the
    placement tables of the baseline and the Fig 8 seeds, each parent's
    children per (body, configuration), and each distinct state's modeled
    time on every device of {!Gpusim.Device.all}, from one launch.  It is
    keyed by the whole baseline kernel; a search of another kernel
    empties it first, and a search with other shapes or scalars drops
    only the launch walks and times.  One memo must not serve two
    searches, or a search and a replay, at once. *)

val create_memo : unit -> memo

val default_width : int
val default_depth : int

val search :
  ?memo:memo ->
  ?width:int ->
  ?depth:int ->
  Gpusim.Device.t ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  outcome
(** [search device k ~shapes ~scalars] beam-searches a rewrite schedule
    for [k] launched with the given argument shapes.  [width] states
    survive each level; at most [depth] rewrites are chained.  A [memo]
    carried over from a search of the same kernel (on any device) spares
    the walks, analyses, child lists and launches that search already
    made; the outcome is the same with or without it.  A device that is
    not physically one of {!Gpusim.Device.all} is priced directly.  The
    ["rewrite"] [End] event reports this search's [attempts] (structural
    attempts made, those a body's site table fails without a walk
    included), [attempt_hits] (structural attempts the memo answered),
    [analyses], [expansions] (child lists built), [launches] and
    [profiles] (launch walks made, one per body), and [memo_bodies], the
    bodies the memo held for [k] when the search began; then the wall
    time spent in pieces of that work: [walk_ms] (site walks and
    attempts), [facts_ms] (thread-dependence tables, analyses and launch
    walks), [digest_ms] (body keys: hashing bodies and looking them up)
    and [price_ms] (binding and pricing launches), each in milliseconds,
    measured only while someone observes the events. *)

val replay :
  ?memo:memo ->
  Gpusim.Device.t ->
  Lime_gpu.Kernel.kernel ->
  string list ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  (candidate, string) result
(** Apply a stored schedule (legality-checked, no search) and price the
    result — the cache-warm path.  The replay goes through the search's
    own pieces: on [memo] when [memo] last searched this very kernel
    ([==]) with these shapes and scalars, and on a fresh memo of its own
    otherwise, so it never empties or re-keys another kernel's memo.  A
    structural step whose outcome the memo records is read from it, and
    any other is applied on its own; the final state is priced from its
    body's launch walk, or read from the memo's prices.  The result, and
    the error of a sequence that does not apply, are the same with or
    without [memo].  The replay adds to [memo] only what a search of the
    same states would: bodies, their walks and their prices.  The
    ["rewrite"] [Replay] event of a replay that attempted, analyzed and
    launched nothing carries [from=memo]. *)

val explain : outcome -> string
(** Human-readable account of a search, for [limec --explain]. *)

val seq_str : string list -> string
(** A sequence as {!Rewrite.sequence_to_string} prints it, or
    ["(baseline)"] when empty. *)

val memo_time :
  memo ->
  Gpusim.Device.t ->
  Rewrite.state ->
  Lime_gpu.Memopt.decision list ->
  float option
(** [memo_time m device st ds] is the modeled time [m]'s price table
    holds for the state [st] under the placement table [ds] on [device],
    if any. *)
