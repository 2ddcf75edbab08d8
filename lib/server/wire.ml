(** Length-prefixed binary frame codec — see the interface. *)

module Trace = Lime_service.Trace

let version = 5
let max_frame = 16 * 1024 * 1024

(* a Result's span count above this is refused before any per-span read *)
let max_spans = 1_000_000

(* u32 sentinel for "no deadline": a real deadline of ~49.7 days is not a
   deadline anyone means *)
let no_deadline = 0xFFFF_FFFF

(* u32 sentinel for "no parent span", in a trace context and a span *)
let no_parent_span = 0xFFFF_FFFF

type trace_ctx = { tc_trace_id : string; tc_parent_span : int }

type compile_req = {
  cr_id : int;
  cr_deadline_ms : int option;
  cr_name : string;
  cr_worker : string;
  cr_config : string;
  cr_source : string;
  cr_trace : trace_ctx option;
  cr_placement : string option;
      (** placement provenance: the [task=device,...] SPEC the client ran
          (or intends to run) this artifact under, surfaced in the
          daemon's access log *)
}

type artifact = {
  ar_id : int;
  ar_origin : string;
  ar_digest : string;
  ar_kernel : string;
  ar_parallel : bool;
  ar_opencl : string;
  ar_placements : string;
  ar_spans : Trace.span list;
}

type error_code =
  | Overloaded
  | Deadline_exceeded
  | Compile_error
  | Protocol_error
  | Draining

let error_code_name = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Compile_error -> "compile-error"
  | Protocol_error -> "protocol-error"
  | Draining -> "draining"

let error_code_byte = function
  | Overloaded -> 1
  | Deadline_exceeded -> 2
  | Compile_error -> 3
  | Protocol_error -> 4
  | Draining -> 5

let error_code_of_byte = function
  | 1 -> Some Overloaded
  | 2 -> Some Deadline_exceeded
  | 3 -> Some Compile_error
  | 4 -> Some Protocol_error
  | 5 -> Some Draining
  | _ -> None

type server_error = {
  er_id : int;
  er_code : error_code;
  er_retry_after_ms : int;
  er_msg : string;
}

type drain_ack = { da_id : int; da_completed : int; da_dropped : int }

type frame =
  | Hello of int
  | Hello_ack of int
  | Compile of compile_req
  | Result of artifact
  | Err of server_error
  | Stats of int
  | Stats_reply of int * string
  | Drain of int
  | Drain_ack of drain_ack

type error = Oversized of int | Unknown_tag of int | Malformed of string

let error_to_string = function
  | Oversized n -> Printf.sprintf "declared frame length %d exceeds %d" n max_frame
  | Unknown_tag t -> Printf.sprintf "unknown frame tag %d" t
  | Malformed msg -> "malformed frame: " ^ msg

let tag_of = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Compile _ -> 3
  | Result _ -> 4
  | Err _ -> 5
  | Stats _ -> 6
  | Stats_reply _ -> 7
  | Drain _ -> 8
  | Drain_ack _ -> 9

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let put_parent b p = put_u32 b (if p < 0 then no_parent_span else p)

let put_span b (sp : Trace.span) =
  put_u32 b sp.sp_id;
  put_parent b sp.sp_parent;
  put_f64 b sp.sp_begin_us;
  put_f64 b sp.sp_end_us;
  put_string b sp.sp_name;
  put_string b sp.sp_cat;
  let args = List.filteri (fun i _ -> i < 0xFFFF) sp.sp_args in
  put_u16 b (List.length args);
  List.iter
    (fun (k, v) ->
      put_string b k;
      put_string b v)
    args

let encode frame =
  let b = Buffer.create 256 in
  put_u8 b (tag_of frame);
  (match frame with
  | Hello v | Hello_ack v -> put_u16 b v
  | Compile r ->
      put_u32 b r.cr_id;
      put_u32 b (Option.value r.cr_deadline_ms ~default:no_deadline);
      put_string b r.cr_name;
      put_string b r.cr_worker;
      put_string b r.cr_config;
      put_string b r.cr_source;
      put_u8 b (if r.cr_trace = None then 0 else 1);
      (match r.cr_trace with
      | None -> ()
      | Some tc ->
          put_string b tc.tc_trace_id;
          put_parent b tc.tc_parent_span);
      put_string b (Option.value r.cr_placement ~default:"")
  | Result a ->
      put_u32 b a.ar_id;
      put_u8 b (if a.ar_parallel then 1 else 0);
      put_string b a.ar_origin;
      put_string b a.ar_digest;
      put_string b a.ar_kernel;
      put_string b a.ar_opencl;
      put_string b a.ar_placements;
      put_u32 b (List.length a.ar_spans);
      List.iter (put_span b) a.ar_spans
  | Err e ->
      put_u32 b e.er_id;
      put_u8 b (error_code_byte e.er_code);
      put_u32 b e.er_retry_after_ms;
      put_string b e.er_msg
  | Stats id | Drain id -> put_u32 b id
  | Stats_reply (id, text) ->
      put_u32 b id;
      put_string b text
  | Drain_ack d ->
      put_u32 b d.da_id;
      put_u32 b d.da_completed;
      put_u32 b d.da_dropped);
  let payload = Buffer.contents b in
  let framed = Buffer.create (String.length payload + 4) in
  put_u32 framed (String.length payload);
  Buffer.add_string framed payload;
  Buffer.contents framed

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = { cu_data : string; mutable cu_pos : int }

let need cu n what =
  if cu.cu_pos + n > String.length cu.cu_data then
    raise (Bad (Printf.sprintf "truncated %s (%d bytes short)" what
                  (cu.cu_pos + n - String.length cu.cu_data)))

let get_u8 cu what =
  need cu 1 what;
  let v = Char.code cu.cu_data.[cu.cu_pos] in
  cu.cu_pos <- cu.cu_pos + 1;
  v

let get_u16 cu what =
  let hi = get_u8 cu what in
  let lo = get_u8 cu what in
  (hi lsl 8) lor lo

let get_u32 cu what =
  let a = get_u8 cu what in
  let b = get_u8 cu what in
  let c = get_u8 cu what in
  let d = get_u8 cu what in
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let get_string cu what =
  let n = get_u32 cu (what ^ " length") in
  need cu n what;
  let s = String.sub cu.cu_data cu.cu_pos n in
  cu.cu_pos <- cu.cu_pos + n;
  s

let get_f64 cu what =
  need cu 8 what;
  let v = Int64.float_of_bits (String.get_int64_be cu.cu_data cu.cu_pos) in
  cu.cu_pos <- cu.cu_pos + 8;
  v

let get_parent cu what =
  let p = get_u32 cu what in
  if p = no_parent_span then -1 else p

let get_span cu : Trace.span =
  let sp_id = get_u32 cu "span id" in
  let sp_parent = get_parent cu "span parent" in
  let sp_begin_us = get_f64 cu "span begin" in
  let sp_end_us = get_f64 cu "span end" in
  if Float.is_nan sp_begin_us || Float.is_nan sp_end_us then
    raise (Bad "NaN span timestamp");
  let sp_name = get_string cu "span name" in
  let sp_cat = get_string cu "span category" in
  let sp_args =
    List.init (get_u16 cu "span arg count") (fun _ ->
        let k = get_string cu "span arg key" in
        (k, get_string cu "span arg value"))
  in
  { sp_id; sp_parent; sp_name; sp_cat; sp_args; sp_begin_us; sp_end_us }

let decode payload : (frame, error) result =
  let cu = { cu_data = payload; cu_pos = 0 } in
  match get_u8 cu "tag" with
  | exception Bad msg -> Error (Malformed msg)
  | tag -> (
      let frame () =
        match tag with
        | 1 -> Hello (get_u16 cu "hello version")
        | 2 -> Hello_ack (get_u16 cu "hello-ack version")
        | 3 ->
            let cr_id = get_u32 cu "compile id" in
            let dl = get_u32 cu "compile deadline" in
            let cr_deadline_ms = if dl = no_deadline then None else Some dl in
            let cr_name = get_string cu "compile name" in
            let cr_worker = get_string cu "compile worker" in
            let cr_config = get_string cu "compile config" in
            let cr_source = get_string cu "compile source" in
            let cr_trace =
              if get_u8 cu "compile trace flag" = 0 then None
              else begin
                let tc_trace_id = get_string cu "compile trace id" in
                let tc_parent_span = get_parent cu "compile parent span" in
                Some { tc_trace_id; tc_parent_span }
              end
            in
            let cr_placement =
              match get_string cu "compile placement" with
              | "" -> None
              | spec -> Some spec
            in
            Compile { cr_id; cr_deadline_ms; cr_name; cr_worker; cr_config;
                      cr_source; cr_trace; cr_placement }
        | 4 ->
            let ar_id = get_u32 cu "result id" in
            let ar_parallel = get_u8 cu "result parallel flag" <> 0 in
            let ar_origin = get_string cu "result origin" in
            let ar_digest = get_string cu "result digest" in
            let ar_kernel = get_string cu "result kernel" in
            let ar_opencl = get_string cu "result opencl" in
            let ar_placements = get_string cu "result placements" in
            let n = get_u32 cu "result span count" in
            if n > max_spans then
              raise
                (Bad (Printf.sprintf "span count %d exceeds %d" n max_spans));
            let ar_spans = List.init n (fun _ -> get_span cu) in
            Result { ar_id; ar_origin; ar_digest; ar_kernel; ar_parallel;
                     ar_opencl; ar_placements; ar_spans }
        | 5 ->
            let er_id = get_u32 cu "error id" in
            let code = get_u8 cu "error code" in
            let er_code =
              match error_code_of_byte code with
              | Some c -> c
              | None -> raise (Bad (Printf.sprintf "bad error code %d" code))
            in
            let er_retry_after_ms = get_u32 cu "error retry-after" in
            let er_msg = get_string cu "error message" in
            Err { er_id; er_code; er_retry_after_ms; er_msg }
        | 6 -> Stats (get_u32 cu "stats id")
        | 7 ->
            let id = get_u32 cu "stats-reply id" in
            let text = get_string cu "stats-reply text" in
            Stats_reply (id, text)
        | 8 -> Drain (get_u32 cu "drain id")
        | 9 ->
            let da_id = get_u32 cu "drain-ack id" in
            let da_completed = get_u32 cu "drain-ack completed" in
            let da_dropped = get_u32 cu "drain-ack dropped" in
            Drain_ack { da_id; da_completed; da_dropped }
        | t -> raise (Bad (Printf.sprintf "tag %d" t))
      in
      if tag < 1 || tag > 9 then Error (Unknown_tag tag)
      else
        match frame () with
        | f ->
            if cu.cu_pos <> String.length payload then
              Error
                (Malformed
                   (Printf.sprintf "%d trailing bytes after frame"
                      (String.length payload - cu.cu_pos)))
            else Ok f
        | exception Bad msg -> Error (Malformed msg))

(* ------------------------------------------------------------------ *)
(* Incremental framing                                                 *)
(* ------------------------------------------------------------------ *)

type reader = { rd_acc : Buffer.t; mutable rd_pos : int }

let reader () = { rd_acc = Buffer.create 4096; rd_pos = 0 }

let feed r buf n = Buffer.add_subbytes r.rd_acc buf 0 n
let feed_string r s = Buffer.add_string r.rd_acc s
let buffered r = Buffer.length r.rd_acc - r.rd_pos

let compact r =
  if r.rd_pos > 0 && r.rd_pos = Buffer.length r.rd_acc then begin
    Buffer.clear r.rd_acc;
    r.rd_pos <- 0
  end

let next r : (frame option, error) result =
  if buffered r < 4 then Ok None
  else begin
    let byte i = Char.code (Buffer.nth r.rd_acc (r.rd_pos + i)) in
    let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
    if len > max_frame then Error (Oversized len)
    else if buffered r < 4 + len then Ok None
    else begin
      let payload = Buffer.sub r.rd_acc (r.rd_pos + 4) len in
      r.rd_pos <- r.rd_pos + 4 + len;
      compact r;
      match decode payload with
      | Ok f -> Ok (Some f)
      | Error e -> Error e
    end
  end
