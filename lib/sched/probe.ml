(** One instrumented pass through a task graph: the per-stage facts the
    placement search prices candidates with.

    The probe fires each stage once as the engine's host firing, in a
    fresh interpreter so the program's own state is untouched, and records
    what the cost model needs: the stage's host seconds, the wire sizes of
    the values crossing each edge under the run's serializer, and for
    offloadable stages the device-independent launch profile and array
    bindings of the engine's compiled kernel, which
    {!Gpusim.Model.kernel_time_ex} prices per device.  Stateful task
    instances are snapshotted and restored around the pass, so probing
    never perturbs the sink values of the real run. *)

module Value = Lime_ir.Value
module Interp = Lime_ir.Interp
module Engine = Lime_runtime.Engine
module Marshal_ = Lime_runtime.Marshal

type stage = {
  st_task : string;
  st_offloadable : bool;
  st_host_s : float;
  st_in_bytes : int;
  st_out_bytes : int;
  st_elem_bytes : int;
  st_profile : Gpusim.Profile.t option;
  st_bindings : Gpusim.Model.array_binding list;
  st_serializer : Marshal_.serializer;
}

(* Task instances are mutable objects shared with the program; snapshot
   their fields (deep-copying arrays) and restore them after the pass. *)
let snapshot_instance (o : Value.obj) : (string * Value.t) list =
  Hashtbl.fold
    (fun k v acc ->
      let v' =
        match v with Value.VArr a -> Value.VArr (Value.deep_copy a) | v -> v
      in
      (k, v') :: acc)
    o.Value.fields []

let restore_instance (o : Value.obj) (saved : (string * Value.t) list) : unit
    =
  Hashtbl.reset o.Value.fields;
  List.iter (fun (k, v) -> Hashtbl.replace o.Value.fields k v) saved

let measure (cfg : Engine.config) (md : Lime_ir.Ir.modul)
    (stages : Engine.stage list) : stage list =
  let st = Interp.create md in
  let saved =
    List.filter_map
      (fun (sg : Engine.stage) ->
        Option.map
          (fun o -> (o, snapshot_instance o))
          sg.Engine.sg_node.Value.tk_instance)
      stages
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun (o, s) -> restore_instance o s) saved)
  @@ fun () ->
  let serializer = cfg.Engine.serializer in
  let v = ref Value.VUnit in
  List.map
    (fun (sg : Engine.stage) ->
      let input = !v in
      let output, host_s = Engine.host_firing st sg input in
      v := output;
      let launch =
        if sg.Engine.sg_verdict = Lime_gpu.Kernel.Offloadable then
          Some (Engine.launch (Lazy.force sg.Engine.sg_compiled) input)
        else None
      in
      {
        st_task = sg.Engine.sg_task;
        st_offloadable = Option.is_some launch;
        st_host_s = host_s;
        st_in_bytes = Marshal_.wire_size serializer input;
        st_out_bytes = Marshal_.wire_size serializer output;
        st_elem_bytes = Engine.elem_bytes input;
        st_profile = Option.map fst launch;
        st_bindings = (match launch with Some (_, b) -> b | None -> []);
        st_serializer = serializer;
      })
    stages

let probe ?(config = Lime_gpu.Memopt.config_all)
    ?(serializer = Marshal_.Custom) (md : Lime_ir.Ir.modul)
    (graph : Value.task_node list) : stage list =
  let cfg =
    { Engine.default_config with Engine.opt_config = config; serializer }
  in
  measure cfg md (Engine.stages cfg md graph)
