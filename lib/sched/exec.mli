(** Run a program under the multi-device scheduler: at each [finish] the
    stages are probed, [choose] picks a placement, and the engine fires
    the same (already compiled) stages under it. *)

type decision = {
  dc_stages : Probe.stage list;  (** the probed pipeline *)
  dc_placement : Placement.t;  (** what [choose] picked *)
  dc_firings : int;
}

val run_program :
  Lime_runtime.Engine.config ->
  choose:(Probe.stage list -> firings:int -> Placement.t) ->
  Lime_ir.Ir.modul ->
  cls:string ->
  meth:string ->
  Lime_ir.Value.t list ->
  Lime_ir.Value.t * Lime_runtime.Engine.report * decision list
(** Create an interpreter, install the placement-aware [finish] hook and
    call [cls.meth].  [choose] is called once per finished graph with the
    probed stages and the firing count; whatever it returns is executed.
    Decisions accumulate in graph order. *)
