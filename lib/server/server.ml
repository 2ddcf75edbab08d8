(** Unix-domain-socket compile daemon — see the interface. *)

module Service = Lime_service.Service
module Pool = Lime_service.Pool
module Metrics = Lime_service.Metrics
module Trace = Lime_service.Trace
module Digest = Lime_service.Digest
module Slo = Lime_service.Slo
module Diag = Lime_support.Diag
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline

type config = {
  sc_socket : string;
  sc_jobs : int;
  sc_max_inflight : int;
  sc_idle_timeout_s : float;
  sc_cache_dir : string option;
  sc_cache_capacity : int;
  sc_http_port : int option;
  sc_access_log : string option;
  sc_drain_grace_s : float;
  sc_flight_capacity : int;
  sc_flight_dump : string option;
  sc_slos : Slo.def list;
}

(* The objectives a daemon watches when none are configured: five nines
   would be dishonest for a simulator, but 99% availability and 95% of
   successful requests under a second are tight enough that tests and ci
   can trip them deliberately (deadline-0 traffic, overload). *)
let default_slos =
  [
    { Slo.d_name = "availability"; d_kind = Slo.Availability; d_objective = 0.99 };
    { Slo.d_name = "latency"; d_kind = Slo.Latency 1.0; d_objective = 0.95 };
  ]

let default_config ~socket =
  {
    sc_socket = socket;
    sc_jobs = 1;
    sc_max_inflight = 64;
    sc_idle_timeout_s = 300.0;
    sc_cache_dir = None;
    sc_cache_capacity = 64;
    sc_http_port = None;
    sc_access_log = None;
    sc_drain_grace_s = 0.0;
    sc_flight_capacity = 32;
    sc_flight_dump = None;
    sc_slos = default_slos;
  }

(* Version string baked into [lime_build_info]; matches the CLI's. *)
let build_version = "1.0.0"

let configs =
  [
    ("global", Memopt.config_global);
    ("global+vec", Memopt.config_global_vector);
    ("local", Memopt.config_local);
    ("local+pad", Memopt.config_local_noconflict);
    ("local+pad+vec", Memopt.config_local_noconflict_vector);
    ("constant", Memopt.config_constant);
    ("constant+vec", Memopt.config_constant_vector);
    ("texture", Memopt.config_image);
    ("all", Memopt.config_all);
  ]

let config_of_name name = List.assoc_opt name configs

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(** What a connection speaks, and the state its reads feed. *)
type proto =
  | Wire of wire_peer
  | Http of Buffer.t
      (** the request head so far: one response, then close
          ([Connection: close]) *)

and wire_peer = { wp_reader : Wire.reader; mutable wp_greeted : bool }

(** One client connection of either plane. *)
type conn = {
  cn_fd : Unix.file_descr;
  cn_proto : proto;
  mutable cn_out : string;  (** bytes queued for write *)
  mutable cn_off : int;  (** how much of [cn_out] is already written *)
  mutable cn_last : float;  (** last read activity *)
  mutable cn_closing : bool;  (** flush what is queued, then close *)
  mutable cn_open : bool;
}

type pending = {
  pd_conn : conn;
  pd_id : int;
  pd_worker : string;
  pd_name : string;
  pd_config : string;
  pd_digest : string;  (** content-addressed request digest, hex *)
  pd_trace : Wire.trace_ctx option;  (** propagated client trace context *)
  pd_placement : string option;  (** client-reported placement SPEC *)
  pd_deadline_ms : int option;
  pd_admit_us : float;  (** admission, on [Trace.default]'s timeline *)
  pd_deadline : float option;  (** absolute, on {!now} *)
  pd_started : float Atomic.t;  (** trace time the job began; < 0 = queued *)
  pd_spans : Trace.span list ref;
      (** spans the job recorded, filled by the worker before the wake *)
  pd_future : (Wire.artifact, Diag.t) result Pool.future;
  mutable pd_abandoned : bool;
      (** the client was already answered (deadline) or is gone; discard
          the eventual result *)
}

type counters = {
  m_connections : Metrics.counter;
  m_requests : Metrics.counter;
  m_rejects : Metrics.counter;
  m_deadline : Metrics.counter;
  m_completed : Metrics.counter;
  m_protocol_errors : Metrics.counter;
  m_queue_depth : Metrics.gauge;
  m_request_seconds : Metrics.histogram;
  m_queue_wait_seconds : Metrics.histogram;
  m_http_requests : Metrics.counter;
  m_dropped_spans : Metrics.counter;
  m_request_summary : Metrics.summary;
      (** windowed streaming quantiles over the same latencies as
          [m_request_seconds] *)
}

(** Per-SLO gauges, refreshed from {!Slo.evaluate} before every
    exposition and [/alertz] answer. *)
type slo_gauges = {
  sg_fast : Metrics.gauge;
  sg_slow : Metrics.gauge;
  sg_state : Metrics.gauge;  (** 0 = ok, 1 = warn, 2 = firing *)
  sg_good : Metrics.gauge;
  sg_bad : Metrics.gauge;
}

type report = {
  rp_requests : int;
  rp_rejected : int;
  rp_deadline : int;
  rp_completed : int;
  rp_dropped : int;
}

type t = {
  sr_cfg : config;
  sr_svc : Service.t;
  sr_owns_svc : bool;
  sr_listen : Unix.file_descr;
  sr_http : Unix.file_descr option;  (** TCP listener, observability plane *)
  sr_pipe_r : Unix.file_descr;  (** self-pipe: wakes select on completions *)
  sr_pipe_w : Unix.file_descr;
  sr_metrics : counters;
  sr_slo : Slo.t;
  sr_slo_gauges : (Slo.def * slo_gauges) list;
  sr_flight : Flight.t;
  sr_drain_req : bool Atomic.t;  (** set by {!drain} / signal handlers *)
  sr_flight_dump_req : bool Atomic.t;
      (** set by {!request_flight_dump} (SIGQUIT); served by the reactor *)
  sr_access : out_channel option;  (** JSONL access log *)
  sr_started : float;  (** {!now} at creation, for /statusz uptime *)
  sr_buf : Bytes.t;  (** the one buffer every socket read lands in *)
  mutable sr_conns : conn list;  (** Wire and HTTP clients, in accept order *)
  mutable sr_active : pending list;
  mutable sr_draining : bool;
  mutable sr_drain_done_at : float option;
      (** when in-flight work hit zero while draining; the reactor lingers
          [sc_drain_grace_s] past this, serving HTTP only, so load
          balancers can observe /healthz flip to draining *)
  mutable sr_drain_acks : (conn * int) list;  (** Drain frames to answer *)
  mutable sr_drain_completed : int;
  mutable sr_ewma_s : float;  (** smoothed request latency, for retry hints *)
  mutable sr_dropped_spans_seen : int;
      (** high-water of [Trace.dropped_spans] already exported *)
  mutable sr_ran : bool;
  mutable sr_requests : int;
  mutable sr_rejected : int;
  mutable sr_deadline : int;
  mutable sr_completed : int;
  mutable sr_dropped : int;
}

(* Deadlines, idle/drain timers and SLO windows.  Only the epoch labels
   (access-log and /alertz [ts], flight [fe_ts], process start time) read
   Unix time. *)
let now = Lime_support.Clock.now_s

(* Request durations run on the trace timeline, where spans live. *)
let trace_now_us () = Trace.now_us Trace.default

let register_metrics reg =
  {
    m_connections =
      Metrics.counter reg ~help:"client connections accepted"
        "lime_server_connections_total";
    m_requests =
      Metrics.counter reg ~help:"compile requests admitted"
        "lime_server_requests_total";
    m_rejects =
      Metrics.counter reg ~help:"compile requests shed with Overloaded"
        "lime_server_rejects_total";
    m_deadline =
      Metrics.counter reg ~help:"requests answered DeadlineExceeded"
        "lime_server_deadline_total";
    m_completed =
      Metrics.counter reg ~help:"requests answered (result or diagnostic)"
        "lime_server_completed_total";
    m_protocol_errors =
      Metrics.counter reg ~help:"malformed frames / protocol violations"
        "lime_server_protocol_errors_total";
    m_queue_depth =
      Metrics.gauge reg ~help:"requests queued or running right now"
        "lime_server_queue_depth";
    m_request_seconds =
      Metrics.histogram reg ~help:"admission-to-reply latency, seconds"
        "lime_server_request_seconds";
    m_queue_wait_seconds =
      Metrics.histogram reg ~help:"admission-to-start queue wait, seconds"
        "lime_server_queue_wait_seconds";
    m_http_requests =
      Metrics.counter reg ~help:"observability-plane HTTP requests served"
        "lime_server_http_requests_total";
    m_dropped_spans =
      Metrics.counter reg
        ~help:"trace spans evicted by the bounded span retention ring"
        "lime_trace_dropped_spans";
    m_request_summary =
      Metrics.summary reg
        ~help:
          "streaming quantiles of admission-to-reply latency, cumulative \
           and over rolling 1m/5m/1h windows"
        "lime_server_request_seconds_summary";
  }

let register_slo_gauges reg defs =
  List.map
    (fun def ->
      let name = def.Slo.d_name in
      Metrics.set
        (Metrics.gauge reg
           ~help:"the good-fraction objective of this SLO"
           ~labels:[ ("slo", name) ] "lime_slo_objective")
        def.Slo.d_objective;
      ( def,
        {
          sg_fast =
            Metrics.gauge reg
              ~help:"error-budget burn rate per SLO and alert window"
              ~labels:[ ("slo", name); ("window", "fast") ]
              "lime_slo_burn_rate";
          sg_slow =
            Metrics.gauge reg
              ~labels:[ ("slo", name); ("window", "slow") ]
              "lime_slo_burn_rate";
          sg_state =
            Metrics.gauge reg
              ~help:"alert state per SLO: 0 = ok, 1 = warn, 2 = firing"
              ~labels:[ ("slo", name) ] "lime_slo_state";
          sg_good =
            Metrics.gauge reg
              ~help:"events counted for/against each SLO since start"
              ~labels:[ ("slo", name); ("result", "good") ]
              "lime_slo_events";
          sg_bad =
            Metrics.gauge reg
              ~labels:[ ("slo", name); ("result", "bad") ]
              "lime_slo_events";
        } ))
    defs

(* Refresh the lime_slo_* gauges from the evaluator and return the
   statuses, so /metrics and /alertz always agree. *)
let sync_slo_metrics t =
  let statuses = Slo.evaluate t.sr_slo in
  List.iter
    (fun st ->
      match
        List.find_opt
          (fun (d, _) -> d.Slo.d_name = st.Slo.st_def.Slo.d_name)
          t.sr_slo_gauges
      with
      | None -> ()
      | Some (_, g) ->
          Metrics.set g.sg_fast st.Slo.st_fast_burn;
          Metrics.set g.sg_slow st.Slo.st_slow_burn;
          Metrics.set g.sg_state
            (match st.Slo.st_state with
            | Slo.Healthy -> 0.0
            | Slo.Warn -> 1.0
            | Slo.Firing -> 2.0);
          Metrics.set g.sg_good (float_of_int st.Slo.st_good);
          Metrics.set g.sg_bad (float_of_int st.Slo.st_bad))
    statuses;
  statuses

let create ?service cfg =
  if cfg.sc_max_inflight < 1 then
    invalid_arg "Server.create: sc_max_inflight must be at least 1";
  if cfg.sc_idle_timeout_s <= 0.0 then
    invalid_arg "Server.create: sc_idle_timeout_s must be positive";
  if cfg.sc_flight_capacity < 1 then
    invalid_arg "Server.create: sc_flight_capacity must be at least 1";
  let svc, owns =
    match service with
    | Some s -> (s, false)
    | None ->
        ( Service.create ?cache_dir:cfg.sc_cache_dir
            ~capacity:cfg.sc_cache_capacity ~jobs:cfg.sc_jobs (),
          true )
  in
  (* replace a stale socket file from a crashed predecessor *)
  (try Unix.unlink cfg.sc_socket with Unix.Unix_error _ -> ());
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen (Unix.ADDR_UNIX cfg.sc_socket);
     Unix.listen listen 64;
     Unix.set_nonblock listen
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     raise e);
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  (* observability plane: a loopback TCP listener (port 0 = ephemeral,
     read back the bound port with {!http_port}) *)
  let http =
    match cfg.sc_http_port with
    | None -> None
    | Some port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           Unix.listen fd 64;
           Unix.set_nonblock fd
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           (try Unix.close listen with Unix.Unix_error _ -> ());
           (try Unix.unlink cfg.sc_socket with Unix.Unix_error _ -> ());
           raise e);
        Some fd
  in
  let access =
    Option.map
      (fun file ->
        open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file)
      cfg.sc_access_log
  in
  let metrics = register_metrics (Service.registry svc) in
  (* always-on tracing: traced Compile frames need the pipeline/rewrite
     observers recording into the default tracer the moment they arrive;
     the retention ring bounds the cost of keeping it on (the bench gate
     holds the overhead under 5%) *)
  Trace.set_enabled Trace.default true;
  Trace.install ();
  (* fleet-identity gauge: constant 1, identity in the labels *)
  Metrics.set
    (Metrics.gauge (Service.registry svc)
       ~help:"build/version identity of this server (always 1)"
       ~labels:
         [
           ("version", build_version);
           ("protocol", string_of_int Wire.version);
           ("ocaml", Sys.ocaml_version);
         ]
       "lime_build_info")
    1.0;
  (* lets dashboards compute uptime and detect restarts from a scrape *)
  Metrics.set
    (Metrics.gauge (Service.registry svc)
       ~help:"unix time this process started" "lime_process_start_time_seconds")
    (Unix.gettimeofday ());
  let slo =
    Slo.create ~clock:now
      (if cfg.sc_slos = [] then default_slos else cfg.sc_slos)
  in
  {
    sr_cfg = cfg;
    sr_svc = svc;
    sr_owns_svc = owns;
    sr_listen = listen;
    sr_http = http;
    sr_pipe_r = pipe_r;
    sr_pipe_w = pipe_w;
    sr_metrics = metrics;
    sr_slo = slo;
    sr_slo_gauges = register_slo_gauges (Service.registry svc) (Slo.defs slo);
    sr_flight = Flight.create ~capacity:cfg.sc_flight_capacity;
    sr_drain_req = Atomic.make false;
    sr_flight_dump_req = Atomic.make false;
    sr_access = access;
    sr_started = now ();
    sr_buf = Bytes.create 65536;
    sr_conns = [];
    sr_active = [];
    sr_draining = false;
    sr_drain_done_at = None;
    sr_drain_acks = [];
    sr_drain_completed = 0;
    sr_ewma_s = 0.0;
    sr_dropped_spans_seen = 0;
    sr_ran = false;
    sr_requests = 0;
    sr_rejected = 0;
    sr_deadline = 0;
    sr_completed = 0;
    sr_dropped = 0;
  }

let service t = t.sr_svc

let http_port t =
  Option.map
    (fun fd ->
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> 0)
    t.sr_http

let wake t =
  try ignore (Unix.write_substring t.sr_pipe_w "w" 0 1)
  with Unix.Unix_error _ -> ()
  (* EAGAIN: the pipe already holds a wakeup *)

let drain t =
  Atomic.set t.sr_drain_req true;
  wake t

(* async-signal-safe, like {!drain}: the SIGQUIT handler only flips the
   flag and pokes the self-pipe; the reactor does the file IO *)
let request_flight_dump t =
  Atomic.set t.sr_flight_dump_req true;
  wake t

let dump_flight t =
  match t.sr_cfg.sc_flight_dump with
  | None -> ()
  | Some file -> (
      try
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file
        in
        Fun.protect
          ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
          (fun () -> Flight.dump t.sr_flight oc)
      with Sys_error _ -> ())

let report t =
  {
    rp_requests = t.sr_requests;
    rp_rejected = t.sr_rejected;
    rp_deadline = t.sr_deadline;
    rp_completed = t.sr_completed;
    rp_dropped = t.sr_dropped;
  }

(* ------------------------------------------------------------------ *)
(* Access log                                                          *)
(* ------------------------------------------------------------------ *)

(* One JSONL record per answered request, flushed per line so a tailer
   (or the ci smoke) sees records as they happen: the request's flight
   entry plus the client-reported placement.  [trace_id] is the
   propagated distributed-trace id — the join key into the client's
   merged Chrome trace and the /statusz table. *)
let log_access t (fe : Flight.entry) ~placement =
  match t.sr_access with
  | None -> ()
  | Some oc ->
      let e = Lime_support.Json.escape in
      Printf.fprintf oc
        "{\"ts\":%.6f,\"id\":%d,\"name\":\"%s\",\"worker\":\"%s\",\
         \"config\":\"%s\",\"digest\":\"%s\",\"deadline_ms\":%s,\
         \"queue_wait_s\":%.9f,\"duration_s\":%.9f,\"outcome\":\"%s\",\
         \"origin\":\"%s\",\"trace_id\":\"%s\",\"placement\":%s}\n%!"
        fe.Flight.fe_ts fe.Flight.fe_id (e fe.Flight.fe_name)
        (e fe.Flight.fe_worker) (e fe.Flight.fe_config) (e fe.Flight.fe_digest)
        (match fe.Flight.fe_deadline_ms with
        | None -> "null"
        | Some ms -> string_of_int ms)
        fe.Flight.fe_wait_s fe.Flight.fe_dur_s (e fe.Flight.fe_outcome)
        (e fe.Flight.fe_origin) (e fe.Flight.fe_trace_id)
        (match placement with
        | None -> "null"
        | Some spec -> Printf.sprintf "\"%s\"" (e spec))

let trace_id = function None -> "" | Some tc -> tc.Wire.tc_trace_id
let trace_id_of pd = trace_id pd.pd_trace

(* ------------------------------------------------------------------ *)
(* Exposition and /statusz                                             *)
(* ------------------------------------------------------------------ *)

(* Fold tracer-side drops into the Prometheus counter: a counter only
   goes up, so export the delta since the last sync. *)
let sync_trace_metrics t =
  let dropped = Trace.dropped_spans Trace.default in
  if dropped > t.sr_dropped_spans_seen then begin
    Metrics.inc t.sr_metrics.m_dropped_spans
      ~by:(dropped - t.sr_dropped_spans_seen);
    t.sr_dropped_spans_seen <- dropped
  end

let exposition t =
  sync_trace_metrics t;
  ignore (sync_slo_metrics t);
  Metrics.set t.sr_metrics.m_queue_depth
    (float_of_int (List.length t.sr_active));
  Service.expose t.sr_svc

let statusz_json t =
  let t_now = now () and now_us = trace_now_us () in
  let e = Lime_support.Json.escape in
  let stats = Service.stats t.sr_svc in
  let hits = stats.Lime_service.Kcache.hits
  and misses = stats.Lime_service.Kcache.misses in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let requests =
    t.sr_active
    |> List.map (fun pd ->
           let state =
             if Atomic.get pd.pd_started >= 0.0 then "running" else "queued"
           in
           Printf.sprintf
             "{\"id\":%d,\"worker\":\"%s\",\"name\":\"%s\",\
              \"digest\":\"%s\",\"state\":\"%s\",\"age_s\":%.6f,\
              \"deadline_in_s\":%s,\"trace_id\":\"%s\"}"
             pd.pd_id (e pd.pd_worker) (e pd.pd_name) (e pd.pd_digest) state
             ((now_us -. pd.pd_admit_us) /. 1e6)
             (match pd.pd_deadline with
             | None -> "null"
             | Some d -> Printf.sprintf "%.6f" (d -. t_now))
             (e (trace_id_of pd)))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"uptime_s\":%.3f,\"draining\":%b,\"protocol_version\":%d,\
     \"version\":\"%s\",\"jobs\":%d,\"in_flight\":%d,\"max_inflight\":%d,\
     \"pool_queue_depth\":%d,\"ewma_service_s\":%.6f,\
     \"totals\":{\"admitted\":%d,\"completed\":%d,\"rejected\":%d,\
     \"deadline\":%d,\"dropped\":%d},\
     \"cache\":{\"hits\":%d,\"misses\":%d,\"disk_hits\":%d,\
     \"evictions\":%d,\"coalesced\":%d,\"hit_rate\":%.4f},\
     \"tunestore\":{\"configured\":%b},\
     \"trace\":{\"trace_id\":\"%s\",\"retention\":%d,\"dropped_spans\":%d},\
     \"flight\":{\"capacity\":%d,\"occupancy\":%d,\"evictions\":%d},\
     \"requests\":[%s]}\n"
    (t_now -. t.sr_started) t.sr_draining Wire.version (e build_version)
    (Service.jobs t.sr_svc)
    (List.length t.sr_active)
    t.sr_cfg.sc_max_inflight
    (Service.queue_depth t.sr_svc)
    t.sr_ewma_s t.sr_requests t.sr_completed t.sr_rejected t.sr_deadline
    t.sr_dropped hits misses (Service.disk_hits t.sr_svc)
    stats.Lime_service.Kcache.evictions stats.Lime_service.Kcache.coalesced
    hit_rate
    (Service.tunestore t.sr_svc <> None)
    (e (Trace.trace_id Trace.default))
    (Trace.retention Trace.default)
    (Trace.dropped_spans Trace.default)
    (Flight.capacity t.sr_flight)
    (Flight.occupancy t.sr_flight)
    (Flight.evictions t.sr_flight)
    requests

let alertz_json t =
  let statuses = sync_slo_metrics t in
  let e = Lime_support.Json.escape in
  let slo_json st =
    let d = st.Slo.st_def in
    Printf.sprintf
      "{\"name\":\"%s\",\"kind\":\"%s\",\"objective\":%g,%s\"state\":\"%s\",\
       \"fast_burn\":%.4f,\"slow_burn\":%.4f,\"good\":%d,\"bad\":%d}"
      (e d.Slo.d_name)
      (match d.Slo.d_kind with
      | Slo.Latency _ -> "latency"
      | Slo.Availability -> "availability")
      d.Slo.d_objective
      (match d.Slo.d_kind with
      | Slo.Latency thr -> Printf.sprintf "\"threshold_s\":%g," thr
      | Slo.Availability -> "")
      (Slo.state_name st.Slo.st_state)
      st.Slo.st_fast_burn st.Slo.st_slow_burn st.Slo.st_good st.Slo.st_bad
  in
  let firing = List.exists (fun st -> st.Slo.st_state = Slo.Firing) statuses in
  Printf.sprintf
    "{\"ts\":%.6f,\"healthy\":%b,\"fast_window_s\":%g,\"slow_window_s\":%g,\
     \"burn_factor\":%g,\"slos\":[%s]}\n"
    (Unix.gettimeofday ()) (not firing) (Slo.fast_s t.sr_slo)
    (Slo.slow_s t.sr_slo)
    (Slo.burn_factor t.sr_slo)
    (String.concat "," (List.map slo_json statuses))

let flight_json entries =
  "[" ^ String.concat ",\n" (List.map Flight.entry_json entries) ^ "]\n"

let http_respond t (req : Http.request) =
  Metrics.inc t.sr_metrics.m_http_requests;
  if req.Http.hr_meth <> "GET" then
    Http.response 405 "only GET is served here\n"
  else
    match req.Http.hr_path with
    | "/metrics" ->
        Http.ok ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (exposition t)
    | "/healthz" ->
        if t.sr_draining then Http.response 503 "draining\n"
        else Http.ok "ok\n"
    | "/statusz" ->
        Http.ok ~content_type:"application/json" (statusz_json t)
    | "/alertz" ->
        Http.ok ~content_type:"application/json" (alertz_json t)
    | "/debug/slow" ->
        Http.ok ~content_type:"application/json"
          (flight_json (Flight.slowest t.sr_flight))
    | "/debug/errors" ->
        Http.ok ~content_type:"application/json"
          (flight_json (Flight.errors t.sr_flight))
    | _ ->
        Http.response 404
          "not found; try /metrics /healthz /statusz /alertz /debug/slow \
           /debug/errors\n"

(* ------------------------------------------------------------------ *)
(* Connection IO                                                       *)
(* ------------------------------------------------------------------ *)

let close_conn c =
  if c.cn_open then begin
    c.cn_open <- false;
    try Unix.close c.cn_fd with Unix.Unix_error _ -> ()
  end

let unflushed c = c.cn_off < String.length c.cn_out

let flush_conn c =
  if c.cn_open then begin
    let continue = ref true in
    while !continue && unflushed c do
      match
        Unix.write_substring c.cn_fd c.cn_out c.cn_off
          (String.length c.cn_out - c.cn_off)
      with
      | 0 -> continue := false
      | n -> c.cn_off <- c.cn_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error _ -> close_conn c; continue := false
    done;
    if c.cn_open && not (unflushed c) then begin
      c.cn_out <- "";
      c.cn_off <- 0;
      if c.cn_closing then close_conn c
    end
  end

(* Append [s] to what [c] has still to write, and write what the socket
   takes now. *)
let queue c s =
  c.cn_out <- String.sub c.cn_out c.cn_off (String.length c.cn_out - c.cn_off)
              ^ s;
  c.cn_off <- 0;
  flush_conn c

let send c frame =
  if c.cn_open && not c.cn_closing then queue c (Wire.encode frame)

(* An HTTP peer's one response, queued with the close that follows it. *)
let respond c resp =
  c.cn_closing <- true;
  queue c (Http.to_string resp)

let send_error t c ~id ~code ?(retry_after_ms = 0) msg =
  (match code with
  | Wire.Overloaded -> Metrics.inc t.sr_metrics.m_rejects
  | Wire.Deadline_exceeded -> Metrics.inc t.sr_metrics.m_deadline
  | Wire.Protocol_error -> Metrics.inc t.sr_metrics.m_protocol_errors
  | _ -> ());
  send c
    (Wire.Err
       { er_id = id; er_code = code; er_retry_after_ms = retry_after_ms; er_msg = msg })

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let retry_after_ms t =
  let per_request = if t.sr_ewma_s > 0.0 then t.sr_ewma_s else 0.005 in
  let hint = per_request *. float_of_int (List.length t.sr_active + 1) *. 1e3 in
  max 1 (min 60_000 (int_of_float hint))

let expired pd t_now =
  match pd.pd_deadline with None -> false | Some d -> t_now >= d

(* Everything the reply needs is computed inside the pool job, so worker
   domains do the heavy lifting and the reactor only forwards bytes. *)
let admit t (c : conn) (r : Wire.compile_req) config =
  let svc = t.sr_svc in
  let t_now = now () in
  let pd_started = Atomic.make (-1.0) in
  let pd_spans = ref [] in
  let digest =
    Digest.to_hex
      (Service.request_digest ~config ~worker:r.Wire.cr_worker
         r.Wire.cr_source)
  in
  (* spans are collected for every request — the flight recorder must be
     able to explain the slowest/errored request after the fact, traced
     or not; test_server pins the always-on work at four spans and one
     access record per warm hit.  They are only shipped home when the
     client propagated a trace context. *)
  let job () =
    Atomic.set pd_started (trace_now_us ());
    let compute () =
      match
        Diag.protect (fun () ->
            Service.compile_ex svc ~config ~name:r.Wire.cr_name
              ~worker:r.Wire.cr_worker r.Wire.cr_source)
      with
      | Error d -> Error d
      | Ok (c, origin) ->
          let kernel = c.Pipeline.cp_kernel in
          Ok
            {
              Wire.ar_id = r.Wire.cr_id;
              ar_origin = Service.origin_name origin;
              ar_digest = digest;
              ar_kernel = kernel.Lime_gpu.Kernel.k_name;
              ar_parallel = kernel.Lime_gpu.Kernel.k_parallel;
              ar_opencl = c.Pipeline.cp_opencl;
              ar_placements = Memopt.describe c.Pipeline.cp_decisions;
              ar_spans = [];
            }
    in
    let res, spans = Trace.collect Trace.default compute in
    pd_spans := spans;
    wake t;
    res
  in
  (* bound before [Pool.submit]: a worker may begin spans at once *)
  let pd_admit_us = trace_now_us () in
  let pd =
    {
      pd_conn = c;
      pd_id = r.Wire.cr_id;
      pd_worker = r.Wire.cr_worker;
      pd_name = r.Wire.cr_name;
      pd_config = r.Wire.cr_config;
      pd_digest = digest;
      pd_trace = r.Wire.cr_trace;
      pd_placement = r.Wire.cr_placement;
      pd_deadline_ms = r.Wire.cr_deadline_ms;
      pd_admit_us;
      pd_deadline =
        Option.map (fun ms -> t_now +. (float_of_int ms /. 1e3)) r.Wire.cr_deadline_ms;
      pd_started;
      pd_spans;
      pd_future = Pool.submit (Service.pool svc) job;
      pd_abandoned = false;
    }
  in
  Metrics.inc t.sr_metrics.m_requests;
  t.sr_requests <- t.sr_requests + 1;
  t.sr_active <- t.sr_active @ [ pd ]

let handle_frame t (c : conn) w (frame : Wire.frame) =
  match frame with
  | Wire.Hello v ->
      if w.wp_greeted then begin
        send_error t c ~id:0 ~code:Wire.Protocol_error "duplicate hello";
        c.cn_closing <- true
      end
      else if v <> Wire.version then begin
        send_error t c ~id:0 ~code:Wire.Protocol_error
          (Printf.sprintf "unsupported protocol version %d (speaking %d)" v
             Wire.version);
        c.cn_closing <- true
      end
      else begin
        w.wp_greeted <- true;
        send c (Wire.Hello_ack Wire.version)
      end
  | _ when not w.wp_greeted ->
      send_error t c ~id:0 ~code:Wire.Protocol_error
        "first frame must be a hello";
      c.cn_closing <- true
  | Wire.Compile r ->
      let log_shed outcome =
        (* a shed request is a broken promise too: it burns the
           availability budget even though it never entered the queue *)
        Slo.record t.sr_slo ~ok:false ~duration_s:0.0;
        log_access t ~placement:r.Wire.cr_placement
          {
            Flight.fe_ts = Unix.gettimeofday ();
            fe_id = r.Wire.cr_id;
            fe_worker = r.Wire.cr_worker;
            fe_name = r.Wire.cr_name;
            fe_config = r.Wire.cr_config;
            fe_digest = "";
            fe_trace_id = trace_id r.Wire.cr_trace;
            fe_deadline_ms = r.Wire.cr_deadline_ms;
            fe_wait_s = 0.0;
            fe_dur_s = 0.0;
            fe_outcome = outcome;
            fe_origin = "";
            fe_spans = [];
          }
      in
      if t.sr_draining then begin
        send_error t c ~id:r.Wire.cr_id ~code:Wire.Draining
          "server is draining";
        log_shed "draining"
      end
      else begin
        match config_of_name r.Wire.cr_config with
        | None ->
            send_error t c ~id:r.Wire.cr_id ~code:Wire.Compile_error
              (Printf.sprintf "unknown config %s; available: %s"
                 r.Wire.cr_config
                 (String.concat ", " (List.map fst configs)));
            log_shed "unknown-config"
        | Some config ->
            if List.length t.sr_active >= t.sr_cfg.sc_max_inflight then begin
              t.sr_rejected <- t.sr_rejected + 1;
              send_error t c ~id:r.Wire.cr_id ~code:Wire.Overloaded
                ~retry_after_ms:(retry_after_ms t)
                (Printf.sprintf "admission queue full (%d in flight)"
                   (List.length t.sr_active));
              log_shed "overloaded"
            end
            else admit t c r config
      end
  | Wire.Stats id -> send c (Wire.Stats_reply (id, exposition t))
  | Wire.Drain id ->
      t.sr_draining <- true;
      t.sr_drain_acks <- t.sr_drain_acks @ [ (c, id) ]
  | Wire.Hello_ack _ | Wire.Result _ | Wire.Err _ | Wire.Stats_reply _
  | Wire.Drain_ack _ ->
      send_error t c ~id:0 ~code:Wire.Protocol_error
        "server-to-client frame on the request path";
      c.cn_closing <- true

(* Parse every complete frame from this read before running any work:
   admission decisions depend only on arrival order. *)
let wire_frames t c w =
  let parsing = ref true in
  while !parsing do
    match Wire.next w.wp_reader with
    | Ok (Some frame) ->
        handle_frame t c w frame;
        if c.cn_closing || not c.cn_open then parsing := false
    | Ok None -> parsing := false
    | Error e ->
        send_error t c ~id:0 ~code:Wire.Protocol_error (Wire.error_to_string e);
        c.cn_closing <- true;
        parsing := false
  done

(* A Wire peer is read to its EOF, which abandons its in-flight work; an
   HTTP peer is read until its one response is queued. *)
let reading c =
  c.cn_open
  && match c.cn_proto with Wire _ -> true | Http _ -> not c.cn_closing

let read_conn t c =
  let buf = t.sr_buf in
  let eof = ref false in
  (try
     let continue = ref true in
     while !continue do
       match Unix.read c.cn_fd buf 0 (Bytes.length buf) with
       | 0 ->
           eof := true;
           continue := false
       | n ->
           c.cn_last <- now ();
           (match c.cn_proto with
           | Wire w -> Wire.feed w.wp_reader buf n
           | Http head -> Buffer.add_subbytes head buf 0 n);
           (* keep draining the fd until EAGAIN so one select round picks
              up everything a pipelining client sent *)
           if n < Bytes.length buf then continue := false
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> eof := true);
  (if c.cn_open && not c.cn_closing then
     match c.cn_proto with
     | Wire w -> wire_frames t c w
     | Http head -> (
         match Http.parse (Buffer.contents head) with
         | Http.Partial -> ()
         | Http.Request req -> respond c (http_respond t req)
         | Http.Bad msg -> respond c (Http.response 400 (msg ^ "\n"))));
  if !eof then
    match c.cn_proto with
    | Wire _ ->
        (* the peer is gone: discard any result still in flight for it *)
        List.iter
          (fun pd -> if pd.pd_conn == c then pd.pd_abandoned <- true)
          t.sr_active;
        close_conn c
    | Http _ ->
        (* half a request head is never answered; a queued response is
           still flushed *)
        if not c.cn_closing then close_conn c

let accept t listen proto =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true listen with
    | fd, _ ->
        Unix.set_nonblock fd;
        let c =
          {
            cn_fd = fd;
            cn_proto = proto ();
            cn_out = "";
            cn_off = 0;
            cn_last = now ();
            cn_closing = false;
            cn_open = true;
          }
        in
        (* the compile plane counts and traces its clients; HTTP scrapes
           stay out of both *)
        (match c.cn_proto with
        | Wire _ ->
            Trace.with_span Trace.default ~cat:"server" "server.accept"
              (fun () -> Metrics.inc t.sr_metrics.m_connections)
        | Http _ -> ());
        t.sr_conns <- t.sr_conns @ [ c ]
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* When a quiet connection is closed: a Wire client after
   [sc_idle_timeout_s] with nothing in flight and nothing queued; an HTTP
   peer gets a short leash, one request and seconds to send it. *)
let idle t c t_now =
  match c.cn_proto with
  | Http _ -> t_now -. c.cn_last > 10.0
  | Wire _ ->
      (not c.cn_closing)
      && t_now -. c.cn_last > t.sr_cfg.sc_idle_timeout_s
      && c.cn_out = ""
      && not (List.exists (fun pd -> pd.pd_conn == c) t.sr_active)

(* The span buffer a traced request ships home inside its Result frame:
   a synthetic [server.request] root from admission to [end_us] (0 =
   admission), a [server.queue_wait] child, and every span the job
   recorded — rebased to admission, with job-side roots reparented under
   the synthetic root so the client grafts one well-nested subtree.  All
   of it is on the one trace clock: the job's spans begin after admission
   and close before the reply, so they nest as recorded.  The same tree
   is what the flight recorder retains for /debug and the post-mortem
   dump. *)
let span_tree pd ~end_us =
  let rebase us = us -. pd.pd_admit_us in
  let ids = List.map (fun sp -> sp.Trace.sp_id) !(pd.pd_spans) in
  let root_id = 1 + List.fold_left max 0 ids in
  let job_spans =
    List.map
      (fun sp ->
        let b = rebase sp.Trace.sp_begin_us in
        {
          sp with
          Trace.sp_parent =
            (if List.mem sp.Trace.sp_parent ids then sp.Trace.sp_parent
             else root_id);
          sp_begin_us = b;
          sp_end_us =
            (if sp.Trace.sp_end_us < 0.0 then b else rebase sp.Trace.sp_end_us);
        })
      !(pd.pd_spans)
  in
  let started = Atomic.get pd.pd_started in
  let wait_us = rebase (if started >= 0.0 then started else end_us) in
  let root =
    {
      Trace.sp_id = root_id;
      sp_parent = -1;
      sp_name = "server.request";
      sp_cat = "server";
      sp_args =
        [
          ("worker", pd.pd_worker);
          ("request_id", string_of_int pd.pd_id);
          ("trace_id", trace_id_of pd);
        ];
      sp_begin_us = 0.0;
      sp_end_us = rebase end_us;
    }
  in
  let queue_wait =
    {
      Trace.sp_id = root_id + 1;
      sp_parent = root_id;
      sp_name = "server.queue_wait";
      sp_cat = "server";
      sp_args = [];
      sp_begin_us = 0.0;
      sp_end_us = wait_us;
    }
  in
  root :: queue_wait :: job_spans

(* Answer one settled (or expired) pending request.  Returns [true] when
   the entry is finished and should leave the active list. *)
let reap_one t pd =
  let t_now = now () and end_us = trace_now_us () in
  let finish ~status ?(origin = "") reply =
    let dur_s = (end_us -. pd.pd_admit_us) /. 1e6 in
    (match reply with
    | Some frame ->
        send pd.pd_conn frame;
        let exemplar =
          match trace_id_of pd with "" -> None | tid -> Some tid
        in
        Metrics.observe ?exemplar t.sr_metrics.m_request_seconds dur_s;
        Metrics.observe_summary t.sr_metrics.m_request_summary dur_s;
        t.sr_ewma_s <-
          (if t.sr_ewma_s = 0.0 then dur_s
           else (0.8 *. t.sr_ewma_s) +. (0.2 *. dur_s))
    | None -> ());
    let started = Atomic.get pd.pd_started in
    let wait_s =
      if started >= 0.0 then (started -. pd.pd_admit_us) /. 1e6 else dur_s
    in
    Metrics.observe t.sr_metrics.m_queue_wait_seconds wait_s;
    Trace.complete Trace.default ~cat:"server" ~ts_us:pd.pd_admit_us
      ~dur_us:(wait_s *. 1e6) "server.queue_wait";
    Trace.complete Trace.default ~cat:"server"
      ~args:[ ("worker", pd.pd_worker); ("status", status) ]
      ~ts_us:pd.pd_admit_us ~dur_us:(dur_s *. 1e6) "server.request";
    let entry =
      {
        Flight.fe_ts = Unix.gettimeofday ();
        fe_id = pd.pd_id;
        fe_worker = pd.pd_worker;
        fe_name = pd.pd_name;
        fe_config = pd.pd_config;
        fe_digest = pd.pd_digest;
        fe_trace_id = trace_id_of pd;
        fe_deadline_ms = pd.pd_deadline_ms;
        fe_wait_s = wait_s;
        fe_dur_s = dur_s;
        fe_outcome = status;
        fe_origin = origin;
        fe_spans = [];
      }
    in
    log_access t entry ~placement:pd.pd_placement;
    Slo.record t.sr_slo ~ok:(status = "ok") ~duration_s:dur_s;
    Flight.record t.sr_flight ~spans:(fun () -> span_tree pd ~end_us) entry;
    if t.sr_draining then t.sr_drain_completed <- t.sr_drain_completed + 1;
    true
  in
  match Pool.poll pd.pd_future with
  | None ->
      (* still queued or running; enforce the deadline *)
      if pd.pd_abandoned || not (expired pd t_now) then false
      else if Pool.cancel pd.pd_future then begin
        t.sr_deadline <- t.sr_deadline + 1;
        send_error t pd.pd_conn ~id:pd.pd_id ~code:Wire.Deadline_exceeded
          "deadline expired before the request started";
        finish ~status:"deadline" None
      end
      else begin
        (* already running: answer now, discard the result later *)
        t.sr_deadline <- t.sr_deadline + 1;
        send_error t pd.pd_conn ~id:pd.pd_id ~code:Wire.Deadline_exceeded
          "deadline expired while the request was running";
        pd.pd_abandoned <- true;
        false
      end
  | Some outcome ->
      if pd.pd_abandoned then begin
        (* reply already sent (deadline) or client is gone *)
        if not pd.pd_conn.cn_open then t.sr_dropped <- t.sr_dropped + 1;
        finish ~status:"abandoned" None
      end
      else if expired pd t_now then begin
        t.sr_deadline <- t.sr_deadline + 1;
        send_error t pd.pd_conn ~id:pd.pd_id ~code:Wire.Deadline_exceeded
          "deadline expired before the result was ready";
        finish ~status:"deadline" None
      end
      else
        match outcome with
        | Ok (Ok artifact) ->
            Metrics.inc t.sr_metrics.m_completed;
            t.sr_completed <- t.sr_completed + 1;
            let artifact =
              (* ship the request's spans home iff the client asked (sent
                 a trace context) and the daemon tracer is recording *)
              if pd.pd_trace <> None && Trace.enabled Trace.default then
                { artifact with Wire.ar_spans = span_tree pd ~end_us }
              else artifact
            in
            finish ~status:"ok" ~origin:artifact.Wire.ar_origin
              (Some (Wire.Result artifact))
        | Ok (Error diag) ->
            Metrics.inc t.sr_metrics.m_completed;
            t.sr_completed <- t.sr_completed + 1;
            finish ~status:"compile-error"
              (Some
                 (Wire.Err
                    {
                      er_id = pd.pd_id;
                      er_code = Wire.Compile_error;
                      er_retry_after_ms = 0;
                      er_msg = Diag.to_string diag;
                    }))
        | Error Pool.Cancelled ->
            (* cancelled by the deadline scan; already answered *)
            finish ~status:"cancelled" None
        | Error exn ->
            Metrics.inc t.sr_metrics.m_completed;
            t.sr_completed <- t.sr_completed + 1;
            finish ~status:"error"
              (Some
                 (Wire.Err
                    {
                      er_id = pd.pd_id;
                      er_code = Wire.Compile_error;
                      er_retry_after_ms = 0;
                      er_msg = Printexc.to_string exn;
                    }))

(* ------------------------------------------------------------------ *)
(* The reactor                                                         *)
(* ------------------------------------------------------------------ *)

let drain_pipe t =
  let continue = ref true in
  while !continue do
    match Unix.read t.sr_pipe_r t.sr_buf 0 (Bytes.length t.sr_buf) with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let select_timeout t =
  let helping =
    Service.jobs t.sr_svc = 1 && Service.queue_depth t.sr_svc > 0
  in
  if helping then 0.0
  else if t.sr_active <> [] then 0.01
  else if t.sr_draining then 0.01
  else
    (* bound idle detection without busy-waiting *)
    min 0.25 (max 0.01 (t.sr_cfg.sc_idle_timeout_s /. 4.0))

let final_flush t =
  (* best-effort: give slow readers one second to take their replies *)
  let deadline = now () +. 1.0 in
  let pending () =
    List.filter (fun c -> c.cn_open && unflushed c) t.sr_conns
  in
  let continue = ref true in
  while !continue do
    match pending () with
    | [] -> continue := false
    | cs ->
        if now () >= deadline then continue := false
        else begin
          (match
             Unix.select [] (List.map (fun c -> c.cn_fd) cs) [] 0.05
           with
          | _, ws, _ ->
              List.iter
                (fun c -> if List.mem c.cn_fd ws then flush_conn c)
                cs
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        end
  done

let shutdown_sockets t =
  List.iter close_conn t.sr_conns;
  (match t.sr_http with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (match t.sr_access with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  (try Unix.close t.sr_listen with Unix.Unix_error _ -> ());
  (try Unix.close t.sr_pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.sr_pipe_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.sr_cfg.sc_socket with Unix.Unix_error _ -> ())

let run t =
  if t.sr_ran then invalid_arg "Server.run: already ran";
  t.sr_ran <- true;
  let finished = ref false in
  while not !finished do
    t.sr_conns <- List.filter (fun c -> c.cn_open) t.sr_conns;
    let rds =
      t.sr_pipe_r
      :: (if t.sr_draining then [] else [ t.sr_listen ])
      (* the observability plane stays up while draining: that is when a
         load balancer most needs /healthz *)
      @ (match t.sr_http with Some fd -> [ fd ] | None -> [])
      @ List.filter_map
          (fun c -> if reading c then Some c.cn_fd else None)
          t.sr_conns
    in
    let wrs =
      List.filter_map
        (fun c -> if unflushed c then Some c.cn_fd else None)
        t.sr_conns
    in
    let rready, wready =
      match Unix.select rds wrs [] (select_timeout t) with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    if List.mem t.sr_pipe_r rready then drain_pipe t;
    if Atomic.get t.sr_drain_req then t.sr_draining <- true;
    if Atomic.get t.sr_flight_dump_req then begin
      Atomic.set t.sr_flight_dump_req false;
      dump_flight t
    end;
    List.iter
      (fun c -> if List.mem c.cn_fd wready then flush_conn c)
      t.sr_conns;
    if (not t.sr_draining) && List.mem t.sr_listen rready then
      accept t t.sr_listen (fun () ->
          Wire { wp_reader = Wire.reader (); wp_greeted = false });
    (match t.sr_http with
    | Some fd when List.mem fd rready ->
        accept t fd (fun () -> Http (Buffer.create 256))
    | _ -> ());
    List.iter
      (fun c -> if reading c && List.mem c.cn_fd rready then read_conn t c)
      t.sr_conns;
    (* a ~jobs:1 service has no worker domains: the reactor runs one
       queued compile per turn so IO and deadline scans stay interleaved *)
    if Service.jobs t.sr_svc = 1 then
      ignore (Pool.run_one (Service.pool t.sr_svc));
    t.sr_active <- List.filter (fun pd -> not (reap_one t pd)) t.sr_active;
    (* connections that finished flushing after being marked closing, and
       connections quiet for too long *)
    let t_now = now () in
    List.iter
      (fun c ->
        if
          (c.cn_closing && not (unflushed c))
          || (c.cn_open && idle t c t_now)
        then close_conn c)
      t.sr_conns;
    Metrics.set t.sr_metrics.m_queue_depth
      (float_of_int (List.length t.sr_active));
    if t.sr_draining && t.sr_active = [] then begin
      (match t.sr_drain_done_at with
      | None ->
          List.iter
            (fun (c, id) ->
              send c
                (Wire.Drain_ack
                   {
                     da_id = id;
                     da_completed = t.sr_drain_completed;
                     da_dropped = t.sr_dropped;
                   }))
            t.sr_drain_acks;
          t.sr_drain_acks <- [];
          t.sr_drain_done_at <- Some (now ())
      | Some _ -> ());
      (* linger for the drain-grace window, serving the observability
         plane only, so /healthz observably flips to draining before the
         process exits *)
      let done_at = Option.value t.sr_drain_done_at ~default:t_now in
      if now () -. done_at >= t.sr_cfg.sc_drain_grace_s then begin
        (* the post-mortem a drained process leaves behind *)
        dump_flight t;
        final_flush t;
        shutdown_sockets t;
        if t.sr_owns_svc then Service.shutdown t.sr_svc;
        finished := true
      end
    end
  done
