(** One instrumented pass through a task graph: the per-stage facts the
    placement search prices candidates with.

    The probe executes each stage once — functionally, in a fresh
    interpreter so the program's own state is untouched — and records what
    the cost model needs: the bytecode cost of running the stage on the
    host, the wire sizes of the values crossing each edge, and for
    offloadable stages the device-independent launch profile and array
    bindings that {!Gpusim.Model.kernel_time_ex} prices per device.
    Stateful task instances are snapshotted and restored around the pass,
    so probing never perturbs the sink values of the real run. *)

module Ir = Lime_ir.Ir
module Value = Lime_ir.Value
module Interp = Lime_ir.Interp
module Kernel = Lime_gpu.Kernel
module Memopt = Lime_gpu.Memopt
module Engine = Lime_runtime.Engine
module Marshal_ = Lime_runtime.Marshal

type stage = {
  st_task : string;  (** qualified task name *)
  st_offloadable : bool;
  st_host_s : float;  (** bytecode cost of one firing on the host *)
  st_in_bytes : int;  (** wire size of the stage's input *)
  st_out_bytes : int;  (** wire size of the stage's output *)
  st_elem_bytes : int;  (** element width of the input array *)
  st_profile : Gpusim.Profile.t option;
      (** device-independent launch profile ([Some] iff offloadable) *)
  st_bindings : Gpusim.Model.array_binding list;
}

let encoded_bytes (serializer : Marshal_.serializer) (v : Value.t) : int =
  match serializer with
  | Marshal_.Custom | Marshal_.Generic -> Marshal_.wire_size v
  | Marshal_.Direct -> Bytes.length (Marshal_.encode_direct v)

let elem_bytes_of = function
  | Value.VArr a -> Ir.scalar_size_bytes a.Value.elem
  | _ -> 4

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

(** Probe a graph: one functional pass, per-stage facts.  [config] is the
    memory-optimizer config the engine will execute with (kernel times are
    priced on the same decisions); [serializer] sizes the wire legs. *)
let probe ?(config = Memopt.config_all)
    ?(serializer = Marshal_.Custom) (md : Ir.modul)
    (graph : Value.task_node list) : stage list =
  let st = Interp.create md in
  let saved =
    List.filter_map
      (fun node ->
        Option.map
          (fun o -> (o, snapshot_instance o))
          node.Value.tk_instance)
      graph
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun (o, s) -> restore_instance o s) saved)
  @@ fun () ->
  let v = ref Value.VUnit in
  List.map
    (fun node ->
      let td = node.Value.tk_desc in
      let name = Ir.qualify td.Ir.td_class td.Ir.td_method in
      let input = !v in
      let in_bytes = encoded_bytes serializer input in
      let elem_bytes = elem_bytes_of input in
      match Kernel.classify md td with
      | Kernel.Offloadable ->
          let kernel = Kernel.extract md ~worker:name in
          let decisions = Memopt.optimize config kernel in
          let args = [ input ] in
          let shapes, scalars = Engine.shapes_of_args kernel args in
          let prof, bindings =
            Gpusim.Autotune.launch kernel decisions ~shapes ~scalars
          in
          (* host cost of the same stage: the kernel body interpreted as
             bytecode, in its own module *)
          let kst = Interp.create (Kernel.to_module kernel) in
          let result =
            Interp.call_function kst kernel.Kernel.k_name None args
          in
          let host_s = Gpusim.Device.jvm_time kst.Interp.counters in
          v := result;
          {
            st_task = name;
            st_offloadable = true;
            st_host_s = host_s;
            st_in_bytes = in_bytes;
            st_out_bytes = encoded_bytes serializer result;
            st_elem_bytes = elem_bytes;
            st_profile = Some prof;
            st_bindings = bindings;
          }
      | _ ->
          let args =
            match td.Ir.td_in with Ir.TUnit -> [] | _ -> [ input ]
          in
          let before = Interp.copy_counters st.Interp.counters in
          let result =
            Interp.call_function st name node.Value.tk_instance args
          in
          let delta = Interp.diff_counters st.Interp.counters before in
          let host_s = Gpusim.Device.jvm_time delta in
          v := result;
          {
            st_task = name;
            st_offloadable = false;
            st_host_s = host_s;
            st_in_bytes = in_bytes;
            st_out_bytes = encoded_bytes serializer result;
            st_elem_bytes = elem_bytes;
            st_profile = None;
            st_bindings = [];
          })
    graph
