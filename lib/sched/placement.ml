(** Placement IR: the per-task device assignment the multi-device
    scheduler decides and the engine executes.

    A placement maps every stage of a [=>] pipeline to the host or to one
    of the simulated devices.  The textual form ([SPEC]) is a
    comma-separated list of [task=device] pairs using the same short
    device names the CLI validates everywhere else ([gtx8800], [gtx580],
    [hd5970], [corei7]) plus [host]; it round-trips through the tunestore
    and the [--multi-device] flag. *)

module Device = Gpusim.Device

type assignment = Host | On of Device.t

(** Short CLI names for the simulated devices, in Table 2 order. *)
let devices =
  [
    ("gtx8800", Device.gtx8800);
    ("gtx580", Device.gtx580);
    ("hd5970", Device.hd5970);
    ("corei7", Device.core_i7);
  ]

let device_names = List.map fst devices

let short_name (d : Device.t) : string =
  match
    List.find_opt (fun (_, d') -> d'.Device.name = d.Device.name) devices
  with
  | Some (n, _) -> n
  | None -> d.Device.name

let assignment_name = function Host -> "host" | On d -> short_name d

let assignment_of_name (s : string) : (assignment, string) result =
  if s = "host" then Ok Host
  else
    match List.assoc_opt s devices with
    | Some d -> Ok (On d)
    | None ->
        Error
          (Printf.sprintf "unknown device %s (expected host, %s)" s
             (String.concat ", " device_names))

type t = (string * assignment) list
(** Task name → assignment, in pipeline order. *)

let equal (a : t) (b : t) : bool =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, aa) (tb, ab) ->
         ta = tb
         &&
         match (aa, ab) with
         | Host, Host -> true
         | On da, On db -> da.Device.name = db.Device.name
         | _ -> false)
       a b

(** The assignment list the engine consumes ([None] = host). *)
let to_engine (p : t) : (string * Device.t option) list =
  List.map
    (fun (task, a) -> (task, match a with Host -> None | On d -> Some d))
    p

let to_spec (p : t) : string =
  String.concat ","
    (List.map (fun (task, a) -> task ^ "=" ^ assignment_name a) p)

(** Parse a [task=device,...] SPEC.  Task validity (existence,
    offloadability) is checked later against the probed pipeline; this
    only checks the grammar and device names. *)
let of_spec (s : string) : (t, string) result =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty placement spec (expected task=device,...)"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          match String.index_opt part '=' with
          | None ->
              Error
                (Printf.sprintf "bad placement %S (expected task=device)" part)
          | Some i -> (
              let task = String.trim (String.sub part 0 i) in
              let dev =
                String.trim
                  (String.sub part (i + 1) (String.length part - i - 1))
              in
              if task = "" then
                Error
                  (Printf.sprintf "bad placement %S (empty task name)" part)
              else if List.mem_assoc task acc then
                Error (Printf.sprintf "task %s placed twice" task)
              else
                match assignment_of_name dev with
                | Error e -> Error e
                | Ok a -> go ((task, a) :: acc) rest))
    in
    go [] parts
