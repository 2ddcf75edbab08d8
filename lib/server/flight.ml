(** Tail-sampling flight recorder — see the interface. *)

module Trace = Lime_service.Trace

type entry = {
  fe_ts : float;
  fe_id : int;
  fe_worker : string;
  fe_name : string;
  fe_config : string;
  fe_digest : string;
  fe_trace_id : string;
  fe_deadline_ms : int option;
  fe_wait_s : float;
  fe_dur_s : float;
  fe_outcome : string;
  fe_origin : string;
  fe_spans : Trace.span list;
}

type t = {
  fl_capacity : int;
  fl_errors : entry Queue.t;  (* oldest at the front *)
  mutable fl_slow : entry list;  (* ascending by duration: head = fastest *)
  mutable fl_slow_len : int;
  mutable fl_evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be at least 1";
  {
    fl_capacity = capacity;
    fl_errors = Queue.create ();
    fl_slow = [];
    fl_slow_len = 0;
    fl_evictions = 0;
  }

let capacity t = t.fl_capacity

let record_error t e =
  Queue.push e t.fl_errors;
  if Queue.length t.fl_errors > t.fl_capacity then begin
    ignore (Queue.pop t.fl_errors);
    t.fl_evictions <- t.fl_evictions + 1
  end

(* keep the list sorted ascending by duration so eviction is "drop the
   head"; ties keep the earlier entry closer to the head (evicted first) *)
let rec insert_slow e = function
  | [] -> [ e ]
  | x :: rest when e.fe_dur_s < x.fe_dur_s -> e :: x :: rest
  | x :: rest -> x :: insert_slow e rest

let record_slow t e =
  if t.fl_slow_len < t.fl_capacity then begin
    t.fl_slow <- insert_slow e t.fl_slow;
    t.fl_slow_len <- t.fl_slow_len + 1
  end
  else
    match t.fl_slow with
    | fastest :: rest when e.fe_dur_s > fastest.fe_dur_s ->
        t.fl_slow <- insert_slow e rest;
        t.fl_evictions <- t.fl_evictions + 1
    | _ -> ()

let would_retain_slow t e =
  t.fl_slow_len < t.fl_capacity
  || match t.fl_slow with
     | fastest :: _ -> e.fe_dur_s > fastest.fe_dur_s
     | [] -> true

let record t ?spans e =
  let retain_error = e.fe_outcome <> "ok" in
  let retain_slow = would_retain_slow t e in
  if retain_error || retain_slow then begin
    (* only now is the span tree worth building *)
    let e = match spans with None -> e | Some f -> { e with fe_spans = f () } in
    if retain_error then record_error t e;
    if retain_slow then record_slow t e
  end

let errors t =
  Queue.fold (fun acc e -> e :: acc) [] t.fl_errors (* newest first *)

let slowest t = List.rev t.fl_slow
let occupancy t = Queue.length t.fl_errors + t.fl_slow_len
let evictions t = t.fl_evictions

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let span_json sp =
  let e = Lime_support.Json.escape in
  let args =
    sp.Trace.sp_args
    |> List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (e k) (e v))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"cat\":\"%s\",\
     \"begin_us\":%.3f,\"end_us\":%.3f,\"args\":{%s}}"
    sp.Trace.sp_id sp.Trace.sp_parent (e sp.Trace.sp_name)
    (e sp.Trace.sp_cat) sp.Trace.sp_begin_us sp.Trace.sp_end_us args

let entry_json en =
  let e = Lime_support.Json.escape in
  Printf.sprintf
    "{\"ts\":%.6f,\"id\":%d,\"name\":\"%s\",\"worker\":\"%s\",\
     \"config\":\"%s\",\"digest\":\"%s\",\"deadline_ms\":%s,\
     \"queue_wait_s\":%.6f,\"duration_s\":%.6f,\"outcome\":\"%s\",\
     \"origin\":\"%s\",\"trace_id\":\"%s\",\"spans\":[%s]}"
    en.fe_ts en.fe_id (e en.fe_name) (e en.fe_worker) (e en.fe_config)
    (e en.fe_digest)
    (match en.fe_deadline_ms with
    | None -> "null"
    | Some ms -> string_of_int ms)
    en.fe_wait_s en.fe_dur_s (e en.fe_outcome) (e en.fe_origin)
    (e en.fe_trace_id)
    (String.concat "," (List.map span_json en.fe_spans))

let dump t oc =
  let line ring en =
    (* the same object served over /debug, wrapped with its ring tag so a
       post-mortem reader can partition the file *)
    Printf.fprintf oc "{\"ring\":\"%s\",\"entry\":%s}\n" ring (entry_json en)
  in
  Queue.iter (line "errors") t.fl_errors;
  List.iter (line "slow") (slowest t);
  flush oc
