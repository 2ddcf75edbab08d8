(** File-backed store of autotuning results — see the interface. *)

module Memopt = Lime_gpu.Memopt

type record = {
  tr_config_name : string;
  tr_config : Memopt.config;
  tr_time_s : float;
  tr_sequence : string list option;
  tr_placement : string option;
}

type t = { ts_root : string }

(* Any other first line is a miss: the store is a cache, so a file in an
   unknown format is re-tuned and overwritten. *)
let magic = "lime-tunestore 5"

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
                let tr_sequence =
                  Option.map sequence_of_line (find "sequence")
                in
                let tr_placement = find "placement" in
                Some
                  {
                    tr_config_name = name;
                    tr_config;
                    tr_time_s;
                    tr_sequence;
                    tr_placement;
                  }
            | _ -> None)
        | _ -> None)
    | _ -> None
