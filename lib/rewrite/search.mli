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
    result — the cache-warm path.  When [memo] last searched this very
    kernel ([==]) with these shapes and scalars, the replay reads it: the
    structural steps' outcomes, the final body and its price, with no
    attempt, analysis or launch.  Anything the memo lacks — a step it
    never attempted or saw fail, a state it never priced — replays
    without it, so the result, and the error of a sequence that no
    longer applies, are the same with or without [memo].  The memo is
    only read.  The ["rewrite"] [Replay] event of a replay the memo
    answered carries [from=memo]. *)

val explain : outcome -> string
(** Human-readable account of a search, for [limec --explain]. *)

val seq_str : string list -> string
(** A sequence as {!Rewrite.sequence_to_string} prints it, or
    ["(baseline)"] when empty. *)

(** {2 Pieces the memo-free reference search in the tests rebuilds} *)

type body
(** A kernel body's thread-dependence table and memory analysis. *)

val body_of : Rewrite.state -> body
val decisions : Rewrite.state -> body -> Lime_gpu.Memopt.decision list

val score :
  Gpusim.Device.t ->
  Rewrite.state ->
  body ->
  Lime_gpu.Memopt.decision list ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  float
(** Modeled time of a state under its decisions, from its own launch. *)

val memo_time :
  memo ->
  Gpusim.Device.t ->
  Rewrite.state ->
  Lime_gpu.Memopt.decision list ->
  float option
(** [memo_time m device st ds] is the modeled time [m]'s price table
    holds for the state [st] under the placement table [ds] on [device],
    if any. *)
