(** Analytic makespan model for a placed pipeline.

    The pipeline's resources are the host thread (marshaling plus
    host-resident task work), one PCIe link per device and one compute
    queue per device.  A candidate placement is priced with the engine's
    own firing model ({!Lime_runtime.Engine}): each stage's legs are the
    ones the engine emits when it fires that stage under the placement —
    {!Lime_runtime.Engine.host_legs} over the probe's host seconds, or
    {!Lime_runtime.Engine.device_legs} over the stage's kernel time
    ({!Gpusim.Model.kernel_time_ex} on the probe's device-independent
    profile), wire sizes and serializer, with the crossings that
    {!Lime_runtime.Engine.transfers}' residency rule leaves.  A
    device→device edge is honestly device→host→device: a download on the
    producer's link plus an upload on the consumer's link.

    The makespan is the same wavefront simulation the engine's overlap
    clock runs ({!Lime_runtime.Schedule.overlapped_makespan}) over those
    legs, so a candidate's modeled time equals the engine's
    [overlapped_s] for that placement.  The breakdown still reports the
    busiest resource as the steady-state bottleneck. *)

module Device = Gpusim.Device
module Comm = Lime_runtime.Comm
module Engine = Lime_runtime.Engine
module Schedule = Lime_runtime.Schedule

type breakdown = {
  cb_occupancy : (string * float) list;
  cb_fill_s : float;
  cb_period_s : float;
  cb_bottleneck : string;
  cb_transfer_s : float;
}

type table = {
  tb_stages : Probe.stage array;
  tb_kernel_s : (string * float) list array;
      (** per stage: device short-name → kernel seconds (offloadable
          stages only) *)
}

(* Kernel times are priced once per (stage, device): the probe's profile
   and bindings are device-independent, so the search never re-profiles. *)
let table (stages : Probe.stage list) : table =
  let kernel_seconds (st : Probe.stage) =
    match st.Probe.st_profile with
    | None -> []
    | Some prof ->
        List.map
          (fun (name, d) ->
            let bd, _ =
              Gpusim.Model.kernel_time_ex d prof st.Probe.st_bindings
            in
            (name, bd.Gpusim.Model.bd_total_s))
          Placement.devices
  in
  let tb_stages = Array.of_list stages in
  { tb_stages; tb_kernel_s = Array.map kernel_seconds tb_stages }

let price ~(firings : int) (tb : table) (assigns : Placement.assignment array)
    : float * breakdown =
  let n = Array.length tb.tb_stages in
  if Array.length assigns <> n then
    invalid_arg "Cost.price: placement arity mismatch";
  let devices =
    Array.map
      (function Placement.On d -> Some d.Device.name | Placement.Host -> None)
      assigns
  in
  let transfer_s = ref 0.0 in
  let legs =
    List.init n (fun k ->
        let st = tb.tb_stages.(k) in
        match assigns.(k) with
        | Placement.Host -> Engine.host_legs st.Probe.st_host_s
        | Placement.On d ->
            let crossings, legs =
              Engine.device_legs st.Probe.st_serializer d
                ~elem_bytes:st.Probe.st_elem_bytes
                ~in_bytes:st.Probe.st_in_bytes
                ~out_bytes:st.Probe.st_out_bytes
                ~kernel_s:
                  (List.assoc (Placement.short_name d) tb.tb_kernel_s.(k))
                (Engine.transfers devices k)
            in
            List.iter
              (fun p -> transfer_s := !transfer_s +. Comm.total p)
              crossings;
            legs)
  in
  (* occupancy accumulates in an assoc kept in first-use order *)
  let occ : (string * float ref) list ref = ref [] in
  let charge r s =
    match List.assoc_opt r !occ with
    | Some cell -> cell := !cell +. s
    | None -> occ := !occ @ [ (r, ref s) ]
  in
  List.iter
    (List.iter (fun l -> charge l.Schedule.lg_resource l.Schedule.lg_seconds))
    legs;
  let occupancy = List.map (fun (r, c) -> (r, !c)) !occ in
  let fill = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 occupancy in
  let bottleneck, period =
    List.fold_left
      (fun ((_, bs) as best) ((_, s) as cur) ->
        if s > bs then cur else best)
      ("host", 0.0) occupancy
  in
  let makespan = Schedule.overlapped_makespan ~firings legs in
  ( makespan,
    {
      cb_occupancy = occupancy;
      cb_fill_s = fill;
      cb_period_s = period;
      cb_bottleneck = bottleneck;
      cb_transfer_s = !transfer_s;
    } )
