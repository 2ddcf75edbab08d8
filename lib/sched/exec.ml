(** Glue between the placement layer and the engine: attach a multi-device
    scheduler as an interpreter's [finish] hook.

    The pipeline graph only exists once the program builds it, so the
    placement decision happens inside the hook: classify the stages with
    the engine, probe them, ask [choose] for a placement (search,
    tunestore replay, or a user SPEC), then fire the same stages under
    that placement, so each kernel the probe compiled fires as compiled.
    The chosen placement and the probe both live in the returned report /
    [decisions] cell for the caller to inspect after the run. *)

module Interp = Lime_ir.Interp
module Engine = Lime_runtime.Engine

type decision = {
  dc_stages : Probe.stage list;
  dc_placement : Placement.t;
  dc_firings : int;
}

let attach (cfg : Engine.config)
    ~(choose : Probe.stage list -> firings:int -> Placement.t)
    (st : Interp.state) : Engine.report * decision list ref =
  let report = Engine.fresh_report () in
  let decisions = ref [] in
  st.Interp.finish_hook <-
    (fun st graph iters ->
      let firings = Option.value iters ~default:1 in
      let graph = Engine.stages cfg st.Interp.md graph in
      let stages = Probe.measure cfg st.Interp.md graph in
      let placement = choose stages ~firings in
      decisions :=
        !decisions
        @ [
            { dc_stages = stages; dc_placement = placement; dc_firings = firings };
          ];
      let cfg =
        { cfg with Engine.placement = Some (Placement.to_engine placement) }
      in
      Engine.run_stages cfg st report graph ~iters:firings);
  (report, decisions)

let run_program (cfg : Engine.config)
    ~(choose : Probe.stage list -> firings:int -> Placement.t)
    (md : Lime_ir.Ir.modul) ~cls ~meth (args : Lime_ir.Value.t list) :
    Lime_ir.Value.t * Engine.report * decision list =
  let st = Interp.create md in
  let report, decisions = attach cfg ~choose st in
  let v = Interp.run st ~cls ~meth args in
  (v, report, !decisions)
