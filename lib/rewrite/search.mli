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
    facts, the placement tables and signatures of the baseline and the
    Fig 8 seeds, each parent's children per (body, configuration), one
    launch profile per (body, private arrays), and each distinct state's
    modeled time on every device of {!Gpusim.Device.all}, from one
    launch.  It is keyed by the whole baseline kernel; a search of another
    kernel empties it first, and a search with other shapes or scalars
    empties only the profiles and times.  One memo must not serve two
    searches at once. *)

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
    ["rewrite"] [End] event reports this search's [attempts] (walks run),
    [attempt_hits] (structural attempts the memo answered), [analyses],
    [expansions] (child lists built), [launches] and [profiles] (launch
    profiles walked), and [memo_bodies], the bodies the memo held for [k]
    when the search began. *)

val replay :
  Gpusim.Device.t ->
  Lime_gpu.Kernel.kernel ->
  string list ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  (candidate, string) result
(** Apply a stored schedule (legality-checked, no search) and price the
    result — the cache-warm path. *)

val explain : outcome -> string
(** Human-readable account of a search, for [limec --explain]. *)

val seq_str : string list -> string
(** A sequence as {!Rewrite.sequence_to_string} prints it, or
    ["(baseline)"] when empty. *)

(** {2 Pieces the memo-free reference search in the tests rebuilds} *)

type body
(** A kernel body's thread-dependence table and memory analysis. *)

val body_of : Rewrite.state -> body
val body_digest : Rewrite.state -> Digest.t
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

val signature : Digest.t -> Lime_gpu.Memopt.decision list -> Digest.t
(** A state's dedup key: its body digest and its placement table (each
    decision's array, placement and reason). *)

val memo_time : memo -> Gpusim.Device.t -> Digest.t -> float option
(** The modeled time a memo's price table holds for the state with that
    {!signature} on the device, if any. *)
