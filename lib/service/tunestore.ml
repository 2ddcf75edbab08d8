(** File-backed store of autotuning results — see the interface. *)

module Memopt = Lime_gpu.Memopt

type headline = {
  th_occupancy : float;
  th_bank_replays : float;
  th_roofline : string;
}

type record = {
  tr_config_name : string;
  tr_config : Memopt.config;
  tr_time_s : float;
  tr_headline : headline option;
  tr_sequence : string list option;
  tr_placement : string option;
}

type t = { ts_root : string }

(* Any other first line is a miss: the store is a cache, so a file in an
   unknown format is re-tuned and overwritten. *)
let magic = "lime-tunestore 4"

(* [Some []] (searched, baseline won) must round-trip distinctly from
   [None] (never searched), so the empty schedule gets a sentinel. *)
let sequence_to_line = function
  | [] -> "-"
  | seq -> String.concat ";" seq

let sequence_of_line = function
  | "-" -> []
  | s -> String.split_on_char ';' s

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  go dir

let open_ dir =
  mkdir_p dir;
  { ts_root = dir }

let root t = t.ts_root

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    s

let path t ~digest ~device =
  Filename.concat t.ts_root
    (Digest.to_hex digest ^ "." ^ sanitize device ^ ".tune")

let store t ~digest ~device (r : record) =
  let file = path t ~digest ~device in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "%s\nname %s\nconfig %s\ntime_s %.9g\n" magic
        r.tr_config_name
        (Digest.canonical_config r.tr_config)
        r.tr_time_s;
      (match r.tr_headline with
      | None -> ()
      | Some h ->
          Printf.fprintf oc "occupancy %.9g\nbank_replays %.9g\nroofline %s\n"
            h.th_occupancy h.th_bank_replays h.th_roofline);
      (match r.tr_sequence with
      | None -> ()
      | Some seq ->
          Printf.fprintf oc "sequence %s\n" (sequence_to_line seq));
      match r.tr_placement with
      | None -> ()
      | Some spec -> Printf.fprintf oc "placement %s\n" spec)

(* "key rest-of-line" — the value may contain spaces (config names do). *)
let field line key =
  let prefix = key ^ " " in
  if
    String.length line > String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  then Some (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
  else None

let load t ~digest ~device : record option =
  let file = path t ~digest ~device in
  if not (Sys.file_exists file) then None
  else
    let lines =
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
    in
    match lines with
    | m :: rest when m = magic ->
        let find key = List.find_map (fun l -> field l key) rest in
        (match (find "name", find "config", find "time_s") with
        | Some name, Some cfg, Some time -> (
            match
              (Digest.config_of_canonical cfg, float_of_string_opt time)
            with
            | Some tr_config, Some tr_time_s ->
                let tr_headline =
                  match
                    ( find "occupancy",
                      find "bank_replays",
                      find "roofline" )
                  with
                  | Some occ, Some br, Some rl -> (
                      match
                        (float_of_string_opt occ, float_of_string_opt br)
                      with
                      | Some th_occupancy, Some th_bank_replays ->
                          Some
                            { th_occupancy; th_bank_replays; th_roofline = rl }
                      | _ -> None)
                  | _ -> None
                in
                let tr_sequence =
                  Option.map sequence_of_line (find "sequence")
                in
                let tr_placement = find "placement" in
                Some
                  {
                    tr_config_name = name;
                    tr_config;
                    tr_time_s;
                    tr_headline;
                    tr_sequence;
                    tr_placement;
                  }
            | _ -> None)
        | _ -> None)
    | _ -> None

let cached_sweep t (d : Gpusim.Device.t) ~digest ~device
    ?(sweep = Gpusim.Autotune.sweep) (k : Lime_gpu.Kernel.kernel) ~shapes
    ~scalars : Gpusim.Autotune.entry list * [ `Hit of record | `Miss ] =
  match load t ~digest ~device with
  | Some r ->
      let bd = Gpusim.Autotune.time_config d k r.tr_config ~shapes ~scalars in
      ( [
          {
            Gpusim.Autotune.at_name = r.tr_config_name;
            at_config = r.tr_config;
            at_time_s = bd.Gpusim.Model.bd_total_s;
            at_breakdown = bd;
          };
        ],
        `Hit r )
  | None ->
      let entries = sweep d k ~shapes ~scalars in
      (match entries with
      | best :: _ ->
          let c =
            Gpusim.Autotune.counters_for d k best.Gpusim.Autotune.at_config
              ~shapes ~scalars
          in
          store t ~digest ~device
            {
              tr_config_name = best.Gpusim.Autotune.at_name;
              tr_config = best.Gpusim.Autotune.at_config;
              tr_time_s = best.Gpusim.Autotune.at_time_s;
              tr_sequence = None;
              tr_placement = None;
              tr_headline =
                Some
                  {
                    th_occupancy = c.Gpusim.Counters.ct_occupancy;
                    th_bank_replays = c.Gpusim.Counters.ct_bank_replays;
                    th_roofline =
                      Gpusim.Counters.roofline_name
                        (Gpusim.Counters.classify c);
                  };
            }
      | [] -> ());
      (entries, `Miss)
