(** Analytic makespan model for a placed pipeline, priced with the
    engine's firing model: a candidate's modeled time is the
    [overlapped_s] the engine reports when it runs that placement. *)

type breakdown = {
  cb_occupancy : (string * float) list;
      (** per-firing busy seconds per resource ("host", "link:<dev>",
          "dev:<dev>"), in first-use order *)
  cb_fill_s : float;  (** one serial pass through every leg *)
  cb_period_s : float;  (** steady-state period: the busiest resource *)
  cb_bottleneck : string;  (** the resource setting the period *)
  cb_transfer_s : float;  (** edge-crossing share of the fill *)
}

type table = private {
  tb_stages : Probe.stage array;
  tb_kernel_s : (string * float) list array;
}
(** The probed stages with each offloadable stage's kernel seconds priced
    once per device. *)

val table : Probe.stage list -> table

val price :
  firings:int -> table -> Placement.assignment array -> float * breakdown
(** Makespan of [firings] firings under one assignment per stage, plus
    the per-resource breakdown.  Each stage's crossings are priced with
    the serializer its probe recorded. *)
