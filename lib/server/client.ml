(** Synchronous daemon client — see the interface. *)

type t = {
  cl_fd : Unix.file_descr;
  cl_reader : Wire.reader;
  cl_timeout : float;
  mutable cl_next_id : int;
  mutable cl_open : bool;
}

type failure = Server_error of Wire.server_error | Transport of string

let failure_to_string = function
  | Server_error e ->
      Printf.sprintf "%s%s%s"
        (Wire.error_code_name e.Wire.er_code)
        (if e.Wire.er_msg = "" then "" else ": " ^ e.Wire.er_msg)
        (if e.Wire.er_retry_after_ms > 0 then
           Printf.sprintf " (retry after %dms)" e.Wire.er_retry_after_ms
         else "")
  | Transport msg -> "transport: " ^ msg

let close t =
  if t.cl_open then begin
    t.cl_open <- false;
    try Unix.close t.cl_fd with Unix.Unix_error _ -> ()
  end

let fresh_id t =
  let id = t.cl_next_id in
  (* u32 on the wire *)
  t.cl_next_id <- (id + 1) land 0xFFFF_FFFF;
  id

let send_frame t frame =
  if not t.cl_open then Error "connection closed"
  else
    let bytes = Wire.encode frame in
    let rec go off =
      if off >= String.length bytes then Ok ()
      else
        match
          Unix.write_substring t.cl_fd bytes off (String.length bytes - off)
        with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (e, _, _) ->
            Error (Unix.error_message e)
    in
    go 0

let recv_frame t =
  if not t.cl_open then Error "connection closed"
  else begin
    let buf = Bytes.create 65536 in
    let deadline = Lime_support.Clock.now_s () +. t.cl_timeout in
    let rec go () =
      match Wire.next t.cl_reader with
      | Ok (Some frame) -> Ok frame
      | Error e -> Error (Wire.error_to_string e)
      | Ok None ->
          if Lime_support.Clock.now_s () >= deadline then
            Error
              (Printf.sprintf "timed out after %.1fs waiting for a reply"
                 t.cl_timeout)
          else begin
            match Unix.read t.cl_fd buf 0 (Bytes.length buf) with
            | 0 -> Error "server closed the connection"
            | n ->
                Wire.feed t.cl_reader buf n;
                go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                (* SO_RCVTIMEO tripped; loop to re-check the deadline *)
                go ()
            | exception Unix.Unix_error (e, _, _) ->
                Error (Unix.error_message e)
          end
    in
    go ()
  end

let connect ?(timeout_s = 30.0) socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Unix.error_message e))
  | () -> (
      (* bound every read so a wedged daemon cannot hang the client; the
         receive loop still re-checks its own deadline on each wakeup *)
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO (min timeout_s 1.0)
       with Unix.Unix_error _ -> ());
      let t =
        {
          cl_fd = fd;
          cl_reader = Wire.reader ();
          cl_timeout = timeout_s;
          cl_next_id = 1;
          cl_open = true;
        }
      in
      let fail msg =
        close t;
        Error msg
      in
      match send_frame t (Wire.Hello Wire.version) with
      | Error msg -> fail ("hello: " ^ msg)
      | Ok () -> (
          match recv_frame t with
          | Error msg -> fail ("hello: " ^ msg)
          | Ok (Wire.Hello_ack v) when v = Wire.version -> Ok t
          | Ok (Wire.Hello_ack v) ->
              fail
                (Printf.sprintf "server speaks protocol version %d, not %d" v
                   Wire.version)
          | Ok (Wire.Err e) -> fail ("hello rejected: " ^ e.Wire.er_msg)
          | Ok _ -> fail "unexpected frame in hello handshake"))

(* Wait for the reply to request [id]; anything else on the wire at that
   point is a protocol violation. *)
let rec await_reply t id ~on_frame =
  match recv_frame t with
  | Error msg -> Error (Transport msg)
  | Ok (Wire.Err e) when e.Wire.er_id = id || e.Wire.er_id = 0 ->
      Error (Server_error e)
  | Ok frame -> (
      match on_frame frame with
      | Some r -> Ok r
      | None -> (
          match frame with
          | Wire.Err _ -> await_reply t id ~on_frame
          | _ ->
              Error
                (Transport "unexpected frame while waiting for a reply")))

let compile t ?deadline_ms ?(config = "all") ?(name = "<client>") ?trace
    ?placement ~worker source =
  let id = fresh_id t in
  let req =
    Wire.Compile
      {
        cr_id = id;
        cr_deadline_ms = deadline_ms;
        cr_name = name;
        cr_worker = worker;
        cr_config = config;
        cr_source = source;
        cr_trace = trace;
        cr_placement = placement;
      }
  in
  match send_frame t req with
  | Error msg -> Error (Transport msg)
  | Ok () ->
      await_reply t id ~on_frame:(function
        | Wire.Result a when a.Wire.ar_id = id -> Some a
        | _ -> None)

let stats t =
  let id = fresh_id t in
  match send_frame t (Wire.Stats id) with
  | Error msg -> Error (Transport msg)
  | Ok () ->
      await_reply t id ~on_frame:(function
        | Wire.Stats_reply (rid, text) when rid = id -> Some text
        | _ -> None)

let drain t =
  let id = fresh_id t in
  match send_frame t (Wire.Drain id) with
  | Error msg -> Error (Transport msg)
  | Ok () ->
      await_reply t id ~on_frame:(function
        | Wire.Drain_ack d when d.Wire.da_id = id -> Some d
        | _ -> None)
