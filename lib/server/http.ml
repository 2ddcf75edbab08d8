(** Minimal HTTP/1.0 responder for the observability plane — see the
    interface. *)

type request = { hr_meth : string; hr_path : string; hr_query : string }

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

type parse_result = Partial | Request of request | Bad of string

let max_head = 16 * 1024

(* Headers end at the first blank line; tolerate bare-LF clients. *)
let head_end s =
  let rec find i =
    if i >= String.length s then None
    else if
      i + 3 < String.length s
      && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else if i + 1 < String.length s && s.[i] = '\n' && s.[i + 1] = '\n' then
      Some i
    else find (i + 1)
  in
  find 0

let parse s =
  match head_end s with
  | None -> if String.length s > max_head then Bad "request head too large" else Partial
  | Some _ -> (
      let line =
        match String.index_opt s '\n' with
        | None -> s
        | Some i ->
            let l = String.sub s 0 i in
            if l <> "" && l.[String.length l - 1] = '\r' then
              String.sub l 0 (String.length l - 1)
            else l
      in
      match String.split_on_char ' ' line with
      | meth :: target :: _ when meth <> "" && target <> "" ->
          let path, query =
            match String.index_opt target '?' with
            | None -> (target, "")
            | Some i ->
                ( String.sub target 0 i,
                  String.sub target (i + 1) (String.length target - i - 1) )
          in
          if String.length path = 0 || path.[0] <> '/' then
            Bad "request target must be an absolute path"
          else Request { hr_meth = meth; hr_path = path; hr_query = query }
      | _ -> Bad "malformed request line")

let reason_of_status = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let response ?(content_type = "text/plain; charset=utf-8") status body =
  { rs_status = status; rs_content_type = content_type; rs_body = body }

let ok ?content_type body = response ?content_type 200 body

let to_string r =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    r.rs_status (reason_of_status r.rs_status) r.rs_content_type
    (String.length r.rs_body) r.rs_body
