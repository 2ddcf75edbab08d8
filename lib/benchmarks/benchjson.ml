(** Versioned machine-readable benchmark results — see the interface. *)

module Device = Gpusim.Device
module Counters = Gpusim.Counters
module Json = Lime_support.Json

let schema_name = "lime-bench"
let schema_version = 1

type entry = {
  e_bench : string;
  e_device : string;
  e_time_s : float;  (** modelled end-to-end seconds per firing *)
  e_kernel_s : float;  (** kernel leg only *)
  e_speedup : float;  (** vs the JVM bytecode baseline *)
  e_occupancy : float;
  e_bank_replays : float;
  e_intensity : float;  (** arithmetic intensity, flop/byte *)
  e_roofline : string;
}

type run = {
  r_name : string;
  r_quick : bool;
  r_seed : int;
  r_entries : entry list;
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let devices =
  [ Device.gtx8800; Device.gtx580; Device.hd5970; Device.core_i7 ]

(* The multi-device placement rows ride along under a pseudo-device so the
   regression diff covers the scheduler too: time is the placed makespan
   per firing, speedup is vs the best single device, and the roofline slot
   records the search mode. *)
let multidev_entries ~quick () : entry list =
  List.map
    (fun (r : Experiments.multidev_row) ->
      {
        e_bench = r.Experiments.md_bench;
        e_device = "multi-device";
        e_time_s = r.Experiments.md_placed_s /. float_of_int r.Experiments.md_firings;
        e_kernel_s = 0.0;
        e_speedup =
          (if r.Experiments.md_placed_s > 0.0 then
             r.Experiments.md_single_s /. r.Experiments.md_placed_s
           else 0.0);
        e_occupancy = 0.0;
        e_bank_replays = 0.0;
        e_intensity = -1.0;
        e_roofline =
          (if r.Experiments.md_exhaustive then "exhaustive" else "beam");
      })
    (Experiments.multidev_rows ~quick ())

let collect ?(quick = false) ?(seed = 1) ?(multidev = false) ~name () : run =
  let entries =
    List.concat_map
      (fun (b : Bench_def.t) ->
        let p = Experiments.prepare ~quick ~seed b in
        let base = Experiments.baseline_seconds p in
        List.map
          (fun (d : Device.t) ->
            let ee = Experiments.endtoend p d in
            let c = ee.Experiments.ee_counters in
            {
              e_bench = b.Bench_def.name;
              e_device = d.Device.name;
              e_time_s = ee.Experiments.ee_total_s;
              e_kernel_s = ee.Experiments.ee_kernel_s;
              e_speedup =
                (if ee.Experiments.ee_total_s > 0.0 then
                   base /. ee.Experiments.ee_total_s
                 else 0.0);
              e_occupancy = c.Counters.ct_occupancy;
              e_bank_replays = c.Counters.ct_bank_replays;
              e_intensity =
                (let i = Counters.arithmetic_intensity c in
                 if Float.is_finite i then i else -1.0);
              e_roofline = Counters.roofline_name (Counters.classify c);
            })
          devices)
      Registry.workloads
  in
  let entries =
    if multidev then entries @ multidev_entries ~quick () else entries
  in
  { r_name = name; r_quick = quick; r_seed = seed; r_entries = entries }

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

(* %.9g survives a float round-trip for every quantity we store. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_json (r : run) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"schema\": \"%s\",\n  \"version\": %d,\n  \"name\": \"%s\",\n\
       \  \"quick\": %b,\n  \"seed\": %d,\n  \"results\": [\n"
       schema_name schema_version (Json.escape r.r_name) r.r_quick r.r_seed);
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"device\": \"%s\", \"time_s\": %s, \
            \"kernel_s\": %s, \"speedup\": %s, \"occupancy\": %s, \
            \"bank_replays\": %s, \"intensity\": %s, \"roofline\": \"%s\"}%s\n"
           (Json.escape e.e_bench) (Json.escape e.e_device) (num e.e_time_s)
           (num e.e_kernel_s) (num e.e_speedup) (num e.e_occupancy)
           (num e.e_bank_replays) (num e.e_intensity) (Json.escape e.e_roofline)
           (if i = List.length r.r_entries - 1 then "" else ",")))
    r.r_entries;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON reading                                                        *)
(* ------------------------------------------------------------------ *)

let str_field key v =
  match Json.member key v with Some (Json.Str s) -> Some s | _ -> None

let num_field key v =
  match Json.member key v with Some (Json.Num f) -> Some f | _ -> None

let of_json (text : string) : (run, string) result =
  match Json.parse text with
  | Error msg -> Error msg
  | Ok j -> (
      match (str_field "schema" j, num_field "version" j) with
      | Some s, _ when s <> schema_name ->
          Error (Printf.sprintf "not a %s file (schema %S)" schema_name s)
      | _, Some v when int_of_float v > schema_version ->
          Error
            (Printf.sprintf "schema version %d is newer than supported %d"
               (int_of_float v) schema_version)
      | Some _, Some _ -> (
          let entry_of e =
            let num_or default key = Option.value ~default (num_field key e) in
            match
              (str_field "bench" e, str_field "device" e, num_field "time_s" e)
            with
            | Some e_bench, Some e_device, Some e_time_s ->
                Some
                  {
                    e_bench;
                    e_device;
                    e_time_s;
                    e_kernel_s = num_or 0.0 "kernel_s";
                    e_speedup = num_or 0.0 "speedup";
                    e_occupancy = num_or 0.0 "occupancy";
                    e_bank_replays = num_or 0.0 "bank_replays";
                    e_intensity = num_or (-1.0) "intensity";
                    e_roofline =
                      Option.value ~default:"" (str_field "roofline" e);
                  }
            | _ -> None
          in
          match Json.member "results" j with
          | Some (Json.List items) ->
              let entries = List.filter_map entry_of items in
              if List.length entries <> List.length items then
                Error "results contain malformed entries"
              else
                Ok
                  {
                    r_name = Option.value ~default:"" (str_field "name" j);
                    r_quick =
                      (match Json.member "quick" j with
                      | Some (Json.Bool b) -> b
                      | _ -> false);
                    r_seed =
                      int_of_float
                        (Option.value ~default:0.0 (num_field "seed" j));
                    r_entries = entries;
                  }
          | _ -> Error "missing results array")
      | _ -> Error "missing schema/version header")

let read_file file : (run, string) result =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> of_json text

let write_file file (r : run) =
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (to_json r))

(* ------------------------------------------------------------------ *)
(* Regression diff                                                     *)
(* ------------------------------------------------------------------ *)

type regression = {
  rg_bench : string;
  rg_device : string;
  rg_kind : [ `Slower of float | `Missing ];
      (** [`Slower ratio]: current/baseline time ratio beyond threshold *)
}

let diff ?(threshold = 0.10) ~(baseline : run) ~(current : run) () :
    regression list =
  let find bench device (r : run) =
    List.find_opt
      (fun e -> e.e_bench = bench && e.e_device = device)
      r.r_entries
  in
  List.filter_map
    (fun (b : entry) ->
      match find b.e_bench b.e_device current with
      | None ->
          Some
            { rg_bench = b.e_bench; rg_device = b.e_device; rg_kind = `Missing }
      | Some c ->
          if b.e_time_s > 0.0 && c.e_time_s > b.e_time_s *. (1.0 +. threshold)
          then
            Some
              {
                rg_bench = b.e_bench;
                rg_device = b.e_device;
                rg_kind = `Slower (c.e_time_s /. b.e_time_s);
              }
          else None)
    baseline.r_entries

let render_regression (r : regression) : string =
  match r.rg_kind with
  | `Missing ->
      Printf.sprintf "%s on %s: missing from current run" r.rg_bench
        r.rg_device
  | `Slower ratio ->
      Printf.sprintf "%s on %s: %.2fx slower than baseline" r.rg_bench
        r.rg_device ratio
