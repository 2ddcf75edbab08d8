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
(* JSON parsing (minimal, no external dependency)                      *)
(* ------------------------------------------------------------------ *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'r' -> Buffer.add_char b '\r'
               | 'b' -> Buffer.add_char b '\b'
               | 'f' -> Buffer.add_char b '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "bad \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   (match int_of_string_opt ("0x" ^ hex) with
                   | Some code when code < 128 ->
                       Buffer.add_char b (Char.chr code)
                   | Some _ -> Buffer.add_char b '?'
                   | None -> fail "bad \\u escape");
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          JObj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          members ();
          JObj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          JList []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          elements ();
          JList (List.rev !items)
        end
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let jfield obj key =
  match obj with
  | JObj fields -> List.assoc_opt key fields
  | _ -> None

let jstr = function Some (JStr s) -> Some s | _ -> None
let jnum = function Some (JNum f) -> Some f | _ -> None
let jbool = function Some (JBool b) -> Some b | _ -> None

let of_json (text : string) : (run, string) result =
  match parse_json text with
  | exception Parse_error msg -> Error msg
  | j -> (
      match (jstr (jfield j "schema"), jnum (jfield j "version")) with
      | Some s, _ when s <> schema_name ->
          Error (Printf.sprintf "not a %s file (schema %S)" schema_name s)
      | _, Some v when int_of_float v > schema_version ->
          Error
            (Printf.sprintf "schema version %d is newer than supported %d"
               (int_of_float v) schema_version)
      | Some _, Some _ -> (
          let entry_of e =
            match
              ( jstr (jfield e "bench"),
                jstr (jfield e "device"),
                jnum (jfield e "time_s") )
            with
            | Some e_bench, Some e_device, Some e_time_s ->
                Some
                  {
                    e_bench;
                    e_device;
                    e_time_s;
                    e_kernel_s =
                      Option.value ~default:0.0 (jnum (jfield e "kernel_s"));
                    e_speedup =
                      Option.value ~default:0.0 (jnum (jfield e "speedup"));
                    e_occupancy =
                      Option.value ~default:0.0 (jnum (jfield e "occupancy"));
                    e_bank_replays =
                      Option.value ~default:0.0
                        (jnum (jfield e "bank_replays"));
                    e_intensity =
                      Option.value ~default:(-1.0)
                        (jnum (jfield e "intensity"));
                    e_roofline =
                      Option.value ~default:"" (jstr (jfield e "roofline"));
                  }
            | _ -> None
          in
          match jfield j "results" with
          | Some (JList items) ->
              let entries = List.filter_map entry_of items in
              if List.length entries <> List.length items then
                Error "results contain malformed entries"
              else
                Ok
                  {
                    r_name =
                      Option.value ~default:"" (jstr (jfield j "name"));
                    r_quick =
                      Option.value ~default:false (jbool (jfield j "quick"));
                    r_seed =
                      int_of_float
                        (Option.value ~default:0.0 (jnum (jfield j "seed")));
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
