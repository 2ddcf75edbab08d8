(** Placement search: choose a device (or the host) for every stage of a
    probed pipeline, exhaustively for at most four placeable stages and
    with a {!Lime_support.Beam} beam above that.  Every candidate is
    priced by {!Cost.price}; the search is deterministic, so a stored
    placement replays byte-identically on a warm run. *)

type candidate = {
  pc_placement : Placement.t;
  pc_time_s : float;  (** modeled makespan of the probed firings *)
  pc_breakdown : Cost.breakdown;
}

type outcome = {
  po_best : candidate;
  po_singles : (string * candidate) list;
      (** the all-host and all-on-one-device baselines, by name *)
  po_best_single : string * candidate;
  po_evals : int;  (** cost-model evaluations spent *)
  po_exhaustive : bool;  (** exhaustive enumeration vs beam *)
  po_firings : int;
}

val default_width : int
(** Beam width above the exhaustive limit. *)

val singles :
  firings:int ->
  Probe.stage list ->
  (string * candidate) list * (string * candidate)
(** The baselines, priced: every offloadable stage on one device, for
    each device, plus everything on the host; and the best of them.
    Each is priced as a placement, so an edge between two stages on the
    device stays resident — what the engine charges when it runs that
    uniform placement, not its [config.device] mode, which pays both
    directions on every device firing.  Used by both the search (as its
    seed) and warm tunestore replays (so a replayed placement prints the
    same scored table a cold search does). *)

val search : firings:int -> Probe.stage list -> outcome

val replay :
  firings:int -> Probe.stage list -> Placement.t -> (candidate, string) result
(** Validate a placement (stored or user-specified) against a probed
    pipeline and price it: every placed task must exist, only offloadable
    tasks may leave the host, and unmentioned tasks stay on the host.
    Returns the completed (all-stages) placement as a candidate. *)

val explain_table :
  singles:(string * candidate) list ->
  best_single:string * candidate ->
  candidate ->
  string
(** The scored placement table shared by cold searches and warm replays:
    the single-device baselines, the chosen placement with its resource
    breakdown, and the speedup over the best single device.  Provenance
    (searched vs replayed) is the caller's header line, so cold and warm
    runs print byte-identical tables. *)

val explain : outcome -> string
(** Human-readable scored placement table, for [limec --explain]. *)
