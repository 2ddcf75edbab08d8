(** One instrumented pass through a task graph: the per-stage facts the
    placement search prices candidates with, measured with the engine's
    own firing code ({!Lime_runtime.Engine}). *)

type stage = {
  st_task : string;  (** qualified task name *)
  st_offloadable : bool;
  st_host_s : float;  (** the engine's host cost of one firing *)
  st_in_bytes : int;  (** wire size of the stage's input *)
  st_out_bytes : int;  (** wire size of the stage's output *)
  st_elem_bytes : int;  (** element width of the input array *)
  st_profile : Gpusim.Profile.t option;
      (** device-independent launch profile ([Some] iff offloadable) *)
  st_bindings : Gpusim.Model.array_binding list;
  st_serializer : Lime_runtime.Marshal.serializer;
      (** the serializer the wire sizes were taken under, which the cost
          model prices the crossings with *)
}

val measure :
  Lime_runtime.Engine.config ->
  Lime_ir.Ir.modul ->
  Lime_runtime.Engine.stage list ->
  stage list
(** Probe the engine's stages of a graph: fire each once on the host in a
    fresh interpreter (task instances are snapshotted and restored, so
    the real run is unperturbed), and launch-profile each offloadable one
    with its compiled kernel under the config's memory optimizer and
    serializer.  The stages keep their compiled kernels for the run. *)

val probe :
  ?config:Lime_gpu.Memopt.config ->
  ?serializer:Lime_runtime.Marshal.serializer ->
  Lime_ir.Ir.modul ->
  Lime_ir.Value.task_node list ->
  stage list
(** {!measure} over a fresh classification of the graph.  [config] is
    the memory-optimizer config (default all optimizations), [serializer]
    the one the wire legs are sized and priced with (default custom). *)
