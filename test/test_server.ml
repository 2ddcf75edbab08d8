(* End-to-end tests of the compile daemon: an in-process server on a real
   Unix-domain socket, driven by real clients.  Every robustness path —
   overload shedding, deadlines, graceful drain, protocol garbage — is
   exercised without a single sleep-as-synchronization: determinism comes
   from the protocol (a deadline of 0 can never be met; a blocked worker
   pins queued work in place; pipelined frames are admitted in order). *)

module Server = Lime_server.Server
module Client = Lime_server.Client
module Wire = Lime_server.Wire
module Service = Lime_service.Service
module Pool = Lime_service.Pool
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Registry = Lime_benchmarks.Registry
module Bench_def = Lime_benchmarks.Bench_def
module Trace = Lime_service.Trace
module Util = Lime_support.Util
module Json = Lime_support.Json

(* either side may write to a peer that already closed (the drain tests
   do it on purpose); that must surface as EPIPE, not kill the process *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let doubler_source =
  {|
class Doubler {
  static local float twice(float x) { return x * 2.0f; }
  static local float[[]] apply(float[[]] xs) { return Doubler.twice @ xs; }
}
|}

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "limed-test-%d-%d.sock" (Unix.getpid ()) !n)

(* Run [f sock server] against a live in-process daemon; the server
   domain is always drained and joined, and the socket file must be gone
   once [run] has returned. *)
let with_server ?service ?(reshape = fun c -> c) f =
  let sock = fresh_sock () in
  let cfg = reshape (Server.default_config ~socket:sock) in
  let server = Server.create ?service cfg in
  let dom = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      Domain.join dom;
      Alcotest.(check bool) "socket removed after drain" false
        (Sys.file_exists sock))
    (fun () -> f sock server)

(* Every test runs under a watchdog: a daemon that never finishes its
   drain would otherwise hang the suite instead of failing it.  The
   watchdog domain waits on a pipe; if the test has not closed it within
   [watchdog_s], it reports the test and ends the process.  The report
   goes to the stderr the suite started with: Alcotest sends a test's own
   output to its log file. *)
let watchdog_s = 120.0
let console = Unix.dup Unix.stderr

let with_watchdog name f () =
  let r, w = Unix.pipe () in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Lime_support.Clock.now_s () +. watchdog_s in
        let rec wait () =
          let left = deadline -. Lime_support.Clock.now_s () in
          if left <= 0.0 then false
          else
            match Unix.select [ r ] [] [] left with
            | [], _, _ -> wait ()
            | _ -> true
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        if not (wait ()) then begin
          let msg =
            Printf.sprintf
              "test_server: %S did not finish within %.0f s (stuck drain?)\n"
              name watchdog_s
          in
          ignore (Unix.write_substring console msg 0 (String.length msg));
          Unix._exit 3
        end;
        Unix.close r)
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Domain.join dog)
    f

let test_case name f = Alcotest.test_case name `Quick (with_watchdog name f)

let connect_exn sock =
  match Client.connect ~timeout_s:60.0 sock with
  | Ok cl -> cl
  | Error msg -> Alcotest.failf "connect: %s" msg

let compile_exn cl ?deadline_ms ~name ~worker source =
  match Client.compile cl ?deadline_ms ~name ~worker source with
  | Ok a -> a
  | Error f -> Alcotest.failf "%s: %s" name (Client.failure_to_string f)

(* ------------------------------------------------------------------ *)
(* Raw socket access, for speaking garbage the Client refuses to send   *)
(* ------------------------------------------------------------------ *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

type raw_reply = Frame of Wire.frame | Eof | Timeout

let raw_next =
  let buf = Bytes.create 4096 in
  fun fd reader ->
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec go () =
      match Wire.next reader with
      | Ok (Some f) -> Frame f
      | Error e -> Alcotest.failf "client-side framing: %s" (Wire.error_to_string e)
      | Ok None ->
          if Unix.gettimeofday () >= deadline then Timeout
          else begin
            match Unix.select [ fd ] [] [] 1.0 with
            | [], _, _ -> go ()
            | _ -> (
                match Unix.read fd buf 0 (Bytes.length buf) with
                | 0 -> Eof
                | n ->
                    Wire.feed reader buf n;
                    go ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          end
    in
    go ()

let expect_protocol_error what fd reader =
  (match raw_next fd reader with
  | Frame (Wire.Err e) ->
      Alcotest.(check bool)
        (what ^ " answered protocol_error")
        true
        (e.Wire.er_code = Wire.Protocol_error)
  | Frame _ -> Alcotest.failf "%s: unexpected frame" what
  | Eof -> Alcotest.failf "%s: server closed without an error frame" what
  | Timeout -> Alcotest.failf "%s: no reply" what);
  (* the offending connection is closed... *)
  match raw_next fd reader with
  | Eof -> ()
  | Frame _ -> Alcotest.failf "%s: traffic after the error" what
  | Timeout -> Alcotest.failf "%s: connection left open" what

(* ------------------------------------------------------------------ *)
(* Round-trip fidelity                                                  *)
(* ------------------------------------------------------------------ *)

(* every program in the benchmark registry must come back from the daemon
   byte-identical to a local compilation *)
let test_registry_roundtrip () =
  let local = Service.create () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown local)
    (fun () ->
      with_server (fun sock _server ->
          let cl = connect_exn sock in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              List.iter
                (fun (b : Bench_def.t) ->
                  let a =
                    compile_exn cl ~name:b.Bench_def.name
                      ~worker:b.Bench_def.worker b.Bench_def.source_small
                  in
                  let c, _ =
                    Service.compile_ex local ~config:Memopt.config_all
                      ~name:b.Bench_def.name ~worker:b.Bench_def.worker
                      b.Bench_def.source_small
                  in
                  let kernel = c.Pipeline.cp_kernel in
                  Alcotest.(check string)
                    (b.Bench_def.name ^ " opencl byte-identical")
                    c.Pipeline.cp_opencl a.Wire.ar_opencl;
                  Alcotest.(check string)
                    (b.Bench_def.name ^ " placements identical")
                    (Memopt.describe c.Pipeline.cp_decisions)
                    a.Wire.ar_placements;
                  Alcotest.(check string)
                    (b.Bench_def.name ^ " kernel name")
                    kernel.Lime_gpu.Kernel.k_name a.Wire.ar_kernel;
                  Alcotest.(check bool)
                    (b.Bench_def.name ^ " parallel flag")
                    kernel.Lime_gpu.Kernel.k_parallel a.Wire.ar_parallel;
                  Alcotest.(check string)
                    (b.Bench_def.name ^ " digest")
                    (Lime_service.Digest.to_hex
                       (Service.request_digest ~config:Memopt.config_all
                          ~worker:b.Bench_def.worker b.Bench_def.source_small))
                    a.Wire.ar_digest)
                Registry.all)))

let test_cache_provenance () =
  with_server (fun sock _server ->
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let a1 =
            compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
              doubler_source
          in
          let a2 =
            compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
              doubler_source
          in
          Alcotest.(check string) "cold request compiled" "compiled"
            a1.Wire.ar_origin;
          Alcotest.(check string) "warm request served from memory" "memory"
            a2.Wire.ar_origin;
          Alcotest.(check string) "same artifact" a1.Wire.ar_opencl
            a2.Wire.ar_opencl;
          Alcotest.(check string) "same digest" a1.Wire.ar_digest
            a2.Wire.ar_digest))

let test_concurrent_clients () =
  (* several clients, one per domain, all compiling at once; everyone
     gets the right artifact back on their own connection *)
  let progs =
    List.filteri (fun i _ -> i < 3) Registry.all
  in
  with_server (fun sock _server ->
      let doms =
        List.map
          (fun (b : Bench_def.t) ->
            Domain.spawn (fun () ->
                let cl = connect_exn sock in
                Fun.protect
                  ~finally:(fun () -> Client.close cl)
                  (fun () ->
                    (* two requests per client: the repeat must hit *)
                    let a =
                      compile_exn cl ~name:b.Bench_def.name
                        ~worker:b.Bench_def.worker b.Bench_def.source_small
                    in
                    let a' =
                      compile_exn cl ~name:b.Bench_def.name
                        ~worker:b.Bench_def.worker b.Bench_def.source_small
                    in
                    (b, a, a'))))
          progs
      in
      List.iter
        (fun d ->
          let (b : Bench_def.t), a, a' = Domain.join d in
          Alcotest.(check bool)
            (b.Bench_def.name ^ " kernel named after the worker")
            true
            (a.Wire.ar_kernel = b.Bench_def.worker);
          Alcotest.(check string)
            (b.Bench_def.name ^ " repeat identical")
            a.Wire.ar_opencl a'.Wire.ar_opencl;
          Alcotest.(check string)
            (b.Bench_def.name ^ " repeat from memory")
            "memory" a'.Wire.ar_origin)
        doms)

(* ------------------------------------------------------------------ *)
(* Overload, deadlines, drain                                           *)
(* ------------------------------------------------------------------ *)

let test_overload_deadline_drain () =
  (* the test owns the service so it can pin the pool's single worker
     domain: with ~jobs:2 the server never runs pool work itself, so
     while the gate is shut nothing admitted can start *)
  let svc = Service.create ~jobs:2 () in
  let gate = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Service.shutdown svc)
    (fun () ->
      let report = ref None in
      with_server ~service:svc
        ~reshape:(fun c -> { c with Server.sc_max_inflight = 2 })
        (fun sock server ->
          let blocker =
            Pool.submit (Service.pool svc) (fun () ->
                while not (Atomic.get gate) do
                  Domain.cpu_relax ()
                done)
          in
          let fd = raw_connect sock in
          (* whatever happens below, open the gate before with_server's
             teardown: its drain waits for request #1, which waits for
             the pinned worker *)
          Fun.protect
            ~finally:(fun () ->
              Atomic.set gate true;
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let rd = Wire.reader () in
              let recv what =
                match raw_next fd rd with
                | Frame f -> f
                | Eof -> Alcotest.failf "%s: server closed" what
                | Timeout -> Alcotest.failf "%s: no reply" what
              in
              raw_send fd (Wire.encode (Wire.Hello Wire.version));
              (match recv "hello" with
              | Wire.Hello_ack _ -> ()
              | _ -> Alcotest.fail "no hello ack");
              let compile id deadline_ms =
                Wire.encode
                  (Wire.Compile
                     {
                       cr_id = id;
                       cr_deadline_ms = deadline_ms;
                       cr_name = "doubler";
                       cr_worker = "Doubler.apply";
                       cr_config = "all";
                       cr_source = doubler_source;
                       cr_trace = None;
                       cr_placement = None;
                     })
              in
              (* pipeline three requests while the worker is pinned, in
                 ONE write: the reactor admits the whole batch in arrival
                 order before its next deadline scan, so #1 fills a slot,
                 #2 (deadline 0: unmeetable by construction) fills the
                 other, and #3 is shed *)
              raw_send fd
                (compile 1 None ^ compile 2 (Some 0) ^ compile 3 None);
              (match recv "overload" with
              | Wire.Err e ->
                  Alcotest.(check int) "the third request is shed" 3
                    e.Wire.er_id;
                  Alcotest.(check bool) "code overloaded" true
                    (e.Wire.er_code = Wire.Overloaded);
                  Alcotest.(check bool) "retry hint present" true
                    (e.Wire.er_retry_after_ms > 0)
              | _ -> Alcotest.fail "expected an overload reply first");
              (* #2 is cancelled in the queue by the deadline scan — the
                 worker never saw it *)
              (match recv "deadline" with
              | Wire.Err e ->
                  Alcotest.(check int) "the deadline request answered" 2
                    e.Wire.er_id;
                  Alcotest.(check bool) "code deadline_exceeded" true
                    (e.Wire.er_code = Wire.Deadline_exceeded)
              | _ -> Alcotest.fail "expected a deadline reply second");
              (* open the gate: #1 runs to completion *)
              Atomic.set gate true;
              (match recv "result" with
              | Wire.Result a ->
                  Alcotest.(check int) "the first request completes" 1
                    a.Wire.ar_id;
                  Alcotest.(check string) "freshly compiled" "compiled"
                    a.Wire.ar_origin
              | _ -> Alcotest.fail "expected the first result last");
              ignore (Pool.await blocker);
              (* graceful drain over the wire: nothing is in flight, the
                 ack reports a clean shutdown *)
              raw_send fd (Wire.encode (Wire.Drain 4));
              (match recv "drain" with
              | Wire.Drain_ack d ->
                  Alcotest.(check int) "nothing dropped" 0 d.Wire.da_dropped
              | _ -> Alcotest.fail "expected the drain ack");
              report := Some (Server.report server)));
      match !report with
      | None -> Alcotest.fail "no report"
      | Some r ->
          Alcotest.(check int) "two admitted" 2 r.Server.rp_requests;
          Alcotest.(check int) "one shed" 1 r.Server.rp_rejected;
          Alcotest.(check int) "one deadline" 1 r.Server.rp_deadline;
          Alcotest.(check int) "one completed" 1 r.Server.rp_completed;
          Alcotest.(check int) "none dropped" 0 r.Server.rp_dropped)

let test_drain_completes_inflight () =
  (* a Drain pipelined after a Compile: the compile still completes, the
     ack counts it, nothing is dropped.  Both frames go out in ONE write
     so the server provably reads them in one batch — the drain is in
     force before the compile can be reaped. *)
  with_server (fun sock _server ->
      let id = 1 and did = 2 in
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let rd = Wire.reader () in
          raw_send fd (Wire.encode (Wire.Hello Wire.version));
          (match raw_next fd rd with
          | Frame (Wire.Hello_ack _) -> ()
          | _ -> Alcotest.fail "no hello ack");
          raw_send fd
            (Wire.encode
               (Wire.Compile
                  {
                    cr_id = id;
                    cr_deadline_ms = None;
                    cr_name = "doubler";
                    cr_worker = "Doubler.apply";
                    cr_config = "all";
                    cr_source = doubler_source;
                    cr_trace = None;
                    cr_placement = None;
                  })
            ^ Wire.encode (Wire.Drain did));
          (match raw_next fd rd with
          | Frame (Wire.Result a) ->
              Alcotest.(check int) "the in-flight compile completed" id
                a.Wire.ar_id
          | _ -> Alcotest.fail "expected the compile result first");
          match raw_next fd rd with
          | Frame (Wire.Drain_ack d) ->
              Alcotest.(check int) "ack echoes the drain id" did
                d.Wire.da_id;
              Alcotest.(check int) "the compile counted as completed" 1
                d.Wire.da_completed;
              Alcotest.(check int) "nothing dropped" 0 d.Wire.da_dropped
          | _ -> Alcotest.fail "expected the drain ack last"))

let test_draining_refuses_new_work () =
  with_server (fun sock _server ->
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let rd = Wire.reader () in
          raw_send fd (Wire.encode (Wire.Hello Wire.version));
          (match raw_next fd rd with
          | Frame (Wire.Hello_ack _) -> ()
          | _ -> Alcotest.fail "no hello ack");
          (* one write: the compile is pipelined behind the drain and must
             be refused, not queued *)
          raw_send fd
            (Wire.encode (Wire.Drain 1)
            ^ Wire.encode
                (Wire.Compile
                   {
                     cr_id = 99;
                     cr_deadline_ms = None;
                     cr_name = "doubler";
                     cr_worker = "Doubler.apply";
                     cr_config = "all";
                     cr_source = doubler_source;
                     cr_trace = None;
                     cr_placement = None;
                   }));
          match raw_next fd rd with
          | Frame (Wire.Err e) ->
              Alcotest.(check int) "refusal names the request" 99
                e.Wire.er_id;
              Alcotest.(check bool) "code draining" true
                (e.Wire.er_code = Wire.Draining)
          | Frame (Wire.Drain_ack _) ->
              (* also acceptable ordering if the refusal raced the ack —
                 but the refusal is sent during frame handling, strictly
                 before the ack, so reaching here is a bug *)
              Alcotest.fail "drain ack arrived before the refusal"
          | Frame _ -> Alcotest.fail "unexpected frame"
          | Eof -> Alcotest.fail "server closed before the refusal"
          | Timeout -> Alcotest.fail "no refusal"))

(* ------------------------------------------------------------------ *)
(* Protocol robustness                                                  *)
(* ------------------------------------------------------------------ *)

let test_unknown_config () =
  with_server (fun sock _server ->
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          match
            Client.compile cl ~config:"warp-speed" ~worker:"Doubler.apply"
              doubler_source
          with
          | Error (Client.Server_error e) ->
              Alcotest.(check bool) "compile_error" true
                (e.Wire.er_code = Wire.Compile_error);
              Alcotest.(check bool) "alternatives listed" true
                (Lime_support.Util.contains_substring ~sub:"local+pad+vec"
                   e.Wire.er_msg)
          | Error (Client.Transport msg) ->
              Alcotest.failf "transport failure: %s" msg
          | Ok _ -> Alcotest.fail "unknown config accepted"))

let test_garbage_resilience () =
  with_server (fun sock _server ->
      (* a hostile length prefix: refused, connection dropped, server
         lives on *)
      let fd = raw_connect sock in
      raw_send fd "\xFF\xFF\xFF\xFFgarbage";
      expect_protocol_error "oversized length" fd (Wire.reader ());
      Unix.close fd;
      (* any version but the server's own, older or newer *)
      List.iter
        (fun v ->
          let fd = raw_connect sock in
          raw_send fd (Wire.encode (Wire.Hello v));
          expect_protocol_error
            (Printf.sprintf "version %d" v)
            fd (Wire.reader ());
          Unix.close fd)
        [ 0; 1; 3; Wire.version + 1 ];
      (* a compile before the hello *)
      let fd = raw_connect sock in
      raw_send fd (Wire.encode (Wire.Stats 1));
      expect_protocol_error "missing hello" fd (Wire.reader ());
      Unix.close fd;
      (* a server-to-client frame on the request path *)
      let fd = raw_connect sock in
      let rd = Wire.reader () in
      raw_send fd (Wire.encode (Wire.Hello Wire.version));
      (match raw_next fd rd with
      | Frame (Wire.Hello_ack v) ->
          Alcotest.(check int) "ack version" Wire.version v
      | _ -> Alcotest.fail "no hello ack");
      raw_send fd (Wire.encode (Wire.Hello_ack 1));
      expect_protocol_error "reversed frame" fd rd;
      Unix.close fd;
      (* an unknown tag after a valid handshake *)
      let fd = raw_connect sock in
      let rd = Wire.reader () in
      raw_send fd (Wire.encode (Wire.Hello Wire.version));
      (match raw_next fd rd with
      | Frame (Wire.Hello_ack _) -> ()
      | _ -> Alcotest.fail "no hello ack");
      raw_send fd "\x00\x00\x00\x05\xEEabcd";
      expect_protocol_error "unknown tag" fd rd;
      Unix.close fd;
      (* after all that abuse, an honest client still gets served *)
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let a =
            compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
              doubler_source
          in
          Alcotest.(check bool) "kernel compiled" true
            (a.Wire.ar_kernel = "Doubler.apply")))

let test_stats_over_the_wire () =
  with_server (fun sock _server ->
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          ignore
            (compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
               doubler_source);
          match Client.stats cl with
          | Ok text ->
              List.iter
                (fun family ->
                  Alcotest.(check bool) (family ^ " exposed") true
                    (Lime_support.Util.contains_substring ~sub:family text))
                [
                  "lime_server_requests_total";
                  "lime_server_connections_total";
                  "lime_server_queue_depth";
                  "lime_server_request_seconds_bucket";
                  "lime_server_queue_wait_seconds_count";
                  "lime_kcache_entries";
                ]
          | Error f -> Alcotest.failf "stats: %s" (Client.failure_to_string f)))

let plain_compile id =
  Wire.Compile
    {
      cr_id = id;
      cr_deadline_ms = None;
      cr_name = "doubler";
      cr_worker = "Doubler.apply";
      cr_config = "all";
      cr_source = doubler_source;
      cr_trace = None;
      cr_placement = None;
    }

(* The idle rule closes a silent greeted client, but never one whose
   request is still in flight: a pinned worker holds the compile past
   several idle periods, and the connection must survive to take its
   result. *)
let test_idle_client_closed () =
  let svc = Service.create ~jobs:2 () in
  let gate = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Service.shutdown svc)
    (fun () ->
      with_server ~service:svc
        ~reshape:(fun c -> { c with Server.sc_idle_timeout_s = 0.2 })
        (fun sock _server ->
          let greet fd rd =
            raw_send fd (Wire.encode (Wire.Hello Wire.version));
            match raw_next fd rd with
            | Frame (Wire.Hello_ack _) -> ()
            | _ -> Alcotest.fail "no hello ack"
          in
          let silent = raw_connect sock in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close silent with Unix.Unix_error _ -> ())
            (fun () ->
              let rd = Wire.reader () in
              greet silent rd;
              match raw_next silent rd with
              | Eof -> ()
              | Frame _ -> Alcotest.fail "traffic on a silent connection"
              | Timeout -> Alcotest.fail "silent client left open");
          let blocker =
            Pool.submit (Service.pool svc) (fun () ->
                while not (Atomic.get gate) do
                  Domain.cpu_relax ()
                done)
          in
          let busy = raw_connect sock in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set gate true;
              ignore (Pool.await blocker);
              try Unix.close busy with Unix.Unix_error _ -> ())
            (fun () ->
              let rd = Wire.reader () in
              greet busy rd;
              raw_send busy (Wire.encode (plain_compile 1));
              (* five idle periods with the compile pinned: the socket
                 must stay silent, neither answered nor closed *)
              (match Unix.select [ busy ] [] [] 1.0 with
              | [], _, _ -> ()
              | _ -> Alcotest.fail "a client with work in flight was touched");
              Atomic.set gate true;
              match raw_next busy rd with
              | Frame (Wire.Result a) ->
                  Alcotest.(check int) "the pinned compile answered" 1
                    a.Wire.ar_id
              | Frame _ -> Alcotest.fail "expected the pinned result"
              | Eof -> Alcotest.fail "closed with a request in flight"
              | Timeout -> Alcotest.fail "no result")))

(* ------------------------------------------------------------------ *)
(* Distributed tracing                                                  *)
(* ------------------------------------------------------------------ *)

(* a traced compile returns the server's spans: rooted at a single
   server.request span, well-nested and monotonic — every
   span inside its parent and inside [0, server.request end], with
   nothing in the daemon adjusting them to fit.  Several cold compiles
   on one daemon, so each buffer carries its own pipeline spans. *)
let test_merged_trace_well_nested () =
  with_server (fun sock _server ->
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          for run = 1 to 4 do
            let trace =
              { Wire.tc_trace_id = Trace.fresh_trace_id (); tc_parent_span = 7 }
            in
            let source = Printf.sprintf "%s// run %d\n" doubler_source run in
            let a =
              match
                Client.compile cl ~name:"doubler" ~trace
                  ~worker:"Doubler.apply" source
              with
              | Ok a -> a
              | Error f ->
                  Alcotest.failf "compile: %s" (Client.failure_to_string f)
            in
            Alcotest.(check bool) "span buffer returned" true
              (a.Wire.ar_spans <> []);
            let spans = a.Wire.ar_spans in
            let root =
              match List.filter (fun sp -> sp.Trace.sp_parent < 0) spans with
              | [ root ] ->
                  Alcotest.(check string) "rooted at server.request"
                    "server.request" root.Trace.sp_name;
                  Alcotest.(check bool) "root starts the timeline" true
                    (root.Trace.sp_begin_us = 0.0);
                  root
              | roots ->
                  Alcotest.failf "%d roots, expected 1" (List.length roots)
            in
            Alcotest.(check bool) "queue-wait child present" true
              (List.exists
                 (fun sp -> sp.Trace.sp_name = "server.queue_wait")
                 spans);
            Alcotest.(check bool) "pipeline spans present" true
              (List.exists
                 (fun sp -> sp.Trace.sp_name = "pipeline.compile")
                 spans);
            let by_id = Hashtbl.create 64 in
            List.iter
              (fun sp -> Hashtbl.replace by_id sp.Trace.sp_id sp)
              spans;
            List.iter
              (fun sp ->
                Alcotest.(check bool)
                  (sp.Trace.sp_name ^ " forward in time, within the request")
                  true
                  (sp.Trace.sp_begin_us >= 0.0
                  && sp.Trace.sp_end_us >= sp.Trace.sp_begin_us
                  && sp.Trace.sp_end_us <= root.Trace.sp_end_us);
                if sp.Trace.sp_parent >= 0 then
                  match Hashtbl.find_opt by_id sp.Trace.sp_parent with
                  | None ->
                      Alcotest.failf "%s has a dangling parent"
                        sp.Trace.sp_name
                  | Some parent ->
                      Alcotest.(check bool)
                        (sp.Trace.sp_name ^ " nested inside "
                       ^ parent.Trace.sp_name)
                        true
                        (parent.Trace.sp_begin_us <= sp.Trace.sp_begin_us
                        && sp.Trace.sp_end_us <= parent.Trace.sp_end_us))
              spans
          done;
          (* an untraced request on the same connection stays span-free *)
          let b =
            compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
              doubler_source
          in
          Alcotest.(check bool) "untraced request returns no spans" true
            (b.Wire.ar_spans = [])))

(* ------------------------------------------------------------------ *)
(* The HTTP observability plane                                         *)
(* ------------------------------------------------------------------ *)

let http_get port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      raw_send fd req;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec go () =
        if Unix.gettimeofday () >= deadline then
          Alcotest.fail "http response never completed";
        match Unix.select [ fd ] [] [] 1.0 with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> Buffer.contents buf
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      in
      go ())

(* the body of an HTTP/1.0 response: everything after the blank line *)
let http_body resp =
  let rec go i =
    if i + 4 > String.length resp then
      Alcotest.failf "no end of headers in %S" resp
    else if String.sub resp i 4 = "\r\n\r\n" then
      String.sub resp (i + 4) (String.length resp - i - 4)
    else go (i + 1)
  in
  go 0

let http_port_exn server =
  match Server.http_port server with
  | Some p -> p
  | None -> Alcotest.fail "no http port bound"

let test_http_endpoints () =
  (* an isolated registry: the exposed counter values must be exactly
     this server's, not the process-wide accumulation of other tests *)
  let svc =
    Service.create ~registry:(Lime_service.Metrics.create ()) ()
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  with_server ~service:svc
    ~reshape:(fun c -> { c with Server.sc_http_port = Some 0 })
    (fun sock server ->
      let port = http_port_exn server in
      (* healthy before any drain *)
      let health = http_get port "GET /healthz HTTP/1.0\r\n\r\n" in
      Alcotest.(check bool) "healthz 200" true
        (Util.contains_substring ~sub:"200 OK" health);
      Alcotest.(check bool) "healthz body" true
        (Util.contains_substring ~sub:"ok" health);
      (* drive one compile so the counters move *)
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          ignore
            (compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
               doubler_source));
      let metrics = http_get port "GET /metrics HTTP/1.0\r\n\r\n" in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " in /metrics") true
            (Util.contains_substring ~sub metrics))
        [
          "200 OK";
          "text/plain; version=0.0.4";
          "lime_build_info{";
          Printf.sprintf "protocol=\"%d\"" Wire.version;
          "lime_server_requests_total 1";
          "lime_trace_dropped_spans";
        ];
      let status = http_get port "GET /statusz HTTP/1.0\r\n\r\n" in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " in /statusz") true
            (Util.contains_substring ~sub status))
        [
          "200 OK";
          "application/json";
          "\"draining\":false";
          (Printf.sprintf "\"protocol_version\":%d" Wire.version);
          "\"admitted\":1";
          "\"trace_id\":\"";
        ];
      (* unknown path and unsupported method *)
      Alcotest.(check bool) "404 for an unknown path" true
        (Util.contains_substring ~sub:"404 Not Found"
           (http_get port "GET /nope HTTP/1.0\r\n\r\n"));
      Alcotest.(check bool) "405 for POST" true
        (Util.contains_substring ~sub:"405 Method Not Allowed"
           (http_get port "POST /metrics HTTP/1.0\r\n\r\n"));
      (* malformed request line *)
      Alcotest.(check bool) "400 for garbage" true
        (Util.contains_substring ~sub:"400 Bad Request"
           (http_get port "????\r\n\r\n")))

(* A peer that sends half a request head and hangs up gets no reply and
   is closed at its EOF, well inside the 10 s leash an HTTP peer gets;
   the daemon serves both planes afterwards. *)
let test_http_half_request () =
  with_server
    ~reshape:(fun c -> { c with Server.sc_http_port = Some 0 })
    (fun sock server ->
      let port = http_port_exn server in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          raw_send fd "GET /healthz HT";
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let buf = Bytes.create 256 in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec await_close got =
            if Unix.gettimeofday () >= deadline then
              Alcotest.fail "half request left open after its EOF"
            else
              match Unix.select [ fd ] [] [] 0.5 with
              | [], _, _ -> await_close got
              | _ -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> got
                  | n -> await_close (got + n)
                  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> got)
          in
          Alcotest.(check int) "no reply to half a request" 0 (await_close 0));
      Alcotest.(check bool) "healthz still served" true
        (Util.contains_substring ~sub:"200 OK"
           (http_get port "GET /healthz HTTP/1.0\r\n\r\n"));
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let a =
            compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
              doubler_source
          in
          Alcotest.(check string) "compile still served" "Doubler.apply"
            a.Wire.ar_kernel))

let test_healthz_flips_while_draining () =
  (* pin the worker so a drain cannot complete while we probe /healthz *)
  let svc = Service.create ~jobs:2 () in
  let gate = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Service.shutdown svc)
    (fun () ->
      with_server ~service:svc
        ~reshape:(fun c -> { c with Server.sc_http_port = Some 0 })
        (fun sock server ->
          let port = http_port_exn server in
          let blocker =
            Pool.submit (Service.pool svc) (fun () ->
                while not (Atomic.get gate) do
                  Domain.cpu_relax ()
                done)
          in
          let cl = connect_exn sock in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set gate true;
              ignore (Pool.await blocker);
              Client.close cl)
            (fun () ->
              (* a compile pinned behind the blocked worker keeps the
                 drain in flight for as long as we need *)
              (match Client.send_frame cl (plain_compile 1) with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "send: %s" msg);
              (* the drain must come AFTER the compile is admitted, or it
                 would be refused and the drain would finish instantly;
                 /statusz makes admission observable *)
              let deadline = Unix.gettimeofday () +. 30.0 in
              let rec await_admission () =
                let status =
                  try Some (http_get port "GET /statusz HTTP/1.0\r\n\r\n")
                  with Unix.Unix_error _ -> None
                in
                match status with
                | Some s when Util.contains_substring ~sub:"\"in_flight\":1" s
                  ->
                    ()
                | _ when Unix.gettimeofday () >= deadline ->
                    Alcotest.fail "the pinned compile was never admitted"
                | _ -> await_admission ()
              in
              await_admission ();
              Server.drain server;
              (* the reactor notices the drain request at its next wakeup;
                 wait (bounded) for readiness to flip rather than sleeping *)
              let deadline = Unix.gettimeofday () +. 30.0 in
              let rec await_flip () =
                (* rapid connect/close cycles against the one-response
                   listener can surface as a transient reset; retry *)
                let health =
                  try Some (http_get port "GET /healthz HTTP/1.0\r\n\r\n")
                  with Unix.Unix_error _ -> None
                in
                match health with
                | Some health
                  when Util.contains_substring ~sub:"503" health ->
                    health
                | _ when Unix.gettimeofday () >= deadline ->
                    Alcotest.fail "healthz never flipped to 503"
                | _ -> await_flip ()
              in
              let health = await_flip () in
              Alcotest.(check bool) "healthz says draining" true
                (Util.contains_substring ~sub:"draining" health);
              Alcotest.(check bool) "statusz agrees" true
                (Util.contains_substring ~sub:"\"draining\":true"
                   (http_get port "GET /statusz HTTP/1.0\r\n\r\n"));
              (* let the pinned compile finish; the drain then completes
                 and with_server's finally joins the reactor *)
              Atomic.set gate true;
              match Client.recv_frame cl with
              | Ok (Wire.Result _) -> ()
              | Ok _ -> Alcotest.fail "expected the pinned result"
              | Error msg -> Alcotest.failf "recv: %s" msg)))

(* ------------------------------------------------------------------ *)
(* The access log                                                       *)
(* ------------------------------------------------------------------ *)

(* The ["ts"] of a JSON record.  Durations run on a monotonic clock, but
   these labels must stay seconds since the Unix epoch. *)
let epoch_ts record =
  match Json.member "ts" record with
  | Some (Json.Num ts) -> ts
  | _ -> Alcotest.fail "record has no numeric ts"

let test_access_log () =
  let log_file =
    Filename.temp_file "limed-access" ".jsonl"
  in
  let trace =
    { Wire.tc_trace_id = Trace.fresh_trace_id (); tc_parent_span = -1 }
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_file with Sys_error _ -> ())
    (fun () ->
      with_server
        ~reshape:(fun c -> { c with Server.sc_access_log = Some log_file })
        (fun sock _server ->
          let cl = connect_exn sock in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              match
                Client.compile cl ~name:"doubler" ~trace
                  ~worker:"Doubler.apply" doubler_source
              with
              | Ok _ -> ()
              | Error f ->
                  Alcotest.failf "compile: %s" (Client.failure_to_string f)));
      (* with_server has drained and joined: the log is complete *)
      let lines =
        In_channel.with_open_text log_file In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      match lines with
      | [ line ] ->
          Alcotest.(check bool) "access-log ts is Unix time" true
            (epoch_ts (Testutil.json_exn ~what:"access record" line) > 1e9);
          List.iter
            (fun sub ->
              Alcotest.(check bool) (sub ^ " in the access line") true
                (Util.contains_substring ~sub line))
            [
              "\"id\":1";
              "\"name\":\"doubler\"";
              "\"worker\":\"Doubler.apply\"";
              "\"config\":\"all\"";
              "\"outcome\":\"ok\"";
              "\"origin\":\"compiled\"";
              "\"trace_id\":\"" ^ trace.Wire.tc_trace_id ^ "\"";
              "\"deadline_ms\":null";
            ]
      | _ ->
          Alcotest.failf "expected exactly one access-log line, got %d"
            (List.length lines))

(* The daemon traces and logs every request whether or not the client
   asked.  Its cost on the warm path is bounded by counting that work, not
   timing it: one cold compile, then [warm_hits] memory hits, each of
   which must add exactly [spans_per_warm_hit] spans to Trace.default —
   none of them a pipeline phase — and one access-log record. *)
let warm_hits = 20

(* service.compile, kcache.lookup, server.queue_wait and server.request *)
let spans_per_warm_hit = 4

let test_always_on_warm_path () =
  let log_file = Filename.temp_file "limed-warm" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_file with Sys_error _ -> ())
    (fun () ->
      with_server
        ~reshape:(fun c -> { c with Server.sc_access_log = Some log_file })
        (fun sock _server ->
          let cl = connect_exn sock in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              (* the reactor answers one connection's frames in order and
                 finishes a request's spans and access record right after
                 sending its reply, so once a stats round trip returns,
                 every request before it is fully recorded *)
              let settle () =
                match Client.stats cl with
                | Ok _ -> ()
                | Error f ->
                    Alcotest.failf "stats: %s" (Client.failure_to_string f)
              in
              let last_id () =
                List.fold_left
                  (fun m sp -> max m sp.Trace.sp_id)
                  (-1)
                  (Trace.spans Trace.default)
              in
              let compile () =
                (compile_exn cl ~name:"doubler" ~worker:"Doubler.apply"
                   doubler_source)
                  .Wire.ar_origin
              in
              Alcotest.(check string) "first request compiles" "compiled"
                (compile ());
              settle ();
              let dropped = Trace.dropped_spans Trace.default in
              let mark = ref (last_id ()) in
              for i = 1 to warm_hits do
                Alcotest.(check string)
                  (Printf.sprintf "hit %d from memory" i)
                  "memory" (compile ());
                settle ();
                let fresh =
                  List.filter
                    (fun sp -> sp.Trace.sp_id > !mark)
                    (Trace.spans Trace.default)
                in
                Alcotest.(check int)
                  (Printf.sprintf "spans added by hit %d" i)
                  spans_per_warm_hit (List.length fresh);
                List.iter
                  (fun sp ->
                    Alcotest.(check bool)
                      (Printf.sprintf "hit %d records no %s" i
                         sp.Trace.sp_name)
                      false
                      (String.starts_with ~prefix:"pipeline."
                         sp.Trace.sp_name))
                  fresh;
                mark := last_id ()
              done;
              Alcotest.(check int) "no span evicted" dropped
                (Trace.dropped_spans Trace.default)));
      let records =
        In_channel.with_open_text log_file In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one access record per request" (warm_hits + 1)
        (List.length records))

(* Generated-program traffic: [traffic_requests] zipf(1.1) draws over a
   pool of [traffic_pool] lime.fuzz programs, so the head of the
   distribution hits the cache and the tail forces cold compiles.  The
   daemon's windowed p50/p99 (a streaming sketch over server-side
   durations) must agree with the exact quantiles of the same durations,
   replayed from its access log with the shared rank convention. *)
let traffic_pool = 7
let traffic_requests = 30

let test_generated_traffic () =
  let seed = 2 in
  let items =
    Lime_fuzz.Gen.corpus ~seed traffic_pool
    |> List.map (fun p ->
           ( List.hd (List.rev (Lime_fuzz.Gen.workers p)),
             Lime_fuzz.Gen.to_source p ))
    |> Array.of_list
  in
  let weights =
    Array.init traffic_pool (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.1))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let rng = Lime_support.Prng.create (0x5a69 lxor (seed * 2654435761)) in
  (* inverse-cdf sampling over the pool ranks *)
  let pick () =
    let x = Lime_support.Prng.float01 rng *. total in
    let rec go r acc =
      let acc = acc +. weights.(r) in
      if x < acc || r = traffic_pool - 1 then r else go (r + 1) acc
    in
    go 0 0.0
  in
  let log_file = Filename.temp_file "limed-traffic" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_file with Sys_error _ -> ())
  @@ fun () ->
  (* an isolated registry: the summary must count this stream alone *)
  let svc = Service.create ~registry:(Lime_service.Metrics.create ()) () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let drawn = Hashtbl.create traffic_pool and origins = ref [] in
  let stats =
    with_server ~service:svc
      ~reshape:(fun c -> { c with Server.sc_access_log = Some log_file })
      (fun sock _server ->
        let cl = connect_exn sock in
        Fun.protect
          ~finally:(fun () -> Client.close cl)
          (fun () ->
            for _ = 1 to traffic_requests do
              let r = pick () in
              let worker, source = items.(r) in
              let art = compile_exn cl ~name:"fuzz" ~worker source in
              Hashtbl.replace drawn r ();
              origins := art.Wire.ar_origin :: !origins
            done;
            (* the daemon's windowed quantiles, while it is still up *)
            match Client.stats cl with
            | Ok text -> text
            | Error f ->
                Alcotest.failf "stats: %s" (Client.failure_to_string f)))
  in
  let origin o = List.length (List.filter (String.equal o) !origins) in
  Alcotest.(check int) "each drawn program compiles once"
    (Hashtbl.length drawn) (origin "compiled");
  Alcotest.(check int) "every repeat is a memory hit"
    (traffic_requests - Hashtbl.length drawn)
    (origin "memory");
  (* only outcomes answered with a reply feed the summary *)
  let answered = [ "ok"; "compile-error"; "error" ] in
  let exact =
    In_channel.with_open_text log_file In_channel.input_lines
    |> List.filter_map (fun line ->
           let record = Testutil.json_exn ~what:"access record" line in
           match
             (Json.member "outcome" record, Json.member "duration_s" record)
           with
           | Some (Json.Str o), Some (Json.Num d) when List.mem o answered ->
               Some d
           | _ -> None)
    |> Array.of_list
  in
  Array.sort compare exact;
  let n = Array.length exact in
  Alcotest.(check bool) "answered requests in the access log" true (n > 0);
  let sample name =
    let prefix = name ^ " " in
    match
      List.find_map
        (fun line ->
          if String.starts_with ~prefix line then
            let pl = String.length prefix in
            float_of_string_opt
              (String.trim (String.sub line pl (String.length line - pl)))
          else None)
        (String.split_on_char '\n' stats)
    with
    | Some v -> v
    | None -> Alcotest.failf "exposition lacks %s" name
  in
  Alcotest.(check int) "summary count = answered access records" n
    (int_of_float (sample "lime_server_request_seconds_summary_count"));
  List.iter
    (fun q ->
      let est =
        sample
          (Printf.sprintf
             "lime_server_request_seconds_summary{window=\"5m\",\
              quantile=\"%g\"}"
             q)
      in
      let x = exact.(Lime_service.Sketch.rank_of q n - 1) in
      let rel = Float.abs (est -. x) /. x in
      (* the %g exposition rounds to 6 significant digits; allow that on
         top of the sketch bound *)
      Alcotest.(check bool)
        (Printf.sprintf "p%g: daemon %.6f s within the sketch bound of \
                         exact %.6f s (relative error %.4f)"
           (q *. 100.0) est x rel)
        true
        (rel <= Lime_service.Sketch.default_alpha +. 1e-4))
    [ 0.5; 0.99 ]

(* ------------------------------------------------------------------ *)
(* SLOs, /alertz, and the flight recorder                              *)
(* ------------------------------------------------------------------ *)

(* deadline-0 traffic is the deterministic burn generator: such a request
   can never be answered in time, so every one lands as a bad event in
   both alerting windows and as an entry in the errors ring *)
let test_alertz_flips_under_burn () =
  let svc = Service.create ~registry:(Lime_service.Metrics.create ()) () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  with_server ~service:svc
    ~reshape:(fun c -> { c with Server.sc_http_port = Some 0 })
    (fun sock server ->
      let port = http_port_exn server in
      let contains sub s = Util.contains_substring ~sub s in
      (* before any traffic: healthy, with the default objectives named *)
      let alertz () = http_get port "GET /alertz HTTP/1.0\r\n\r\n" in
      let a0 = alertz () in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " in /alertz") true (contains sub a0))
        [
          "200 OK"; "application/json"; "\"healthy\":true";
          "\"name\":\"availability\""; "\"kind\":\"latency\"";
          "\"threshold_s\":"; "\"burn_factor\":14.4"; "\"state\":\"ok\"";
        ];
      let trace =
        { Wire.tc_trace_id = Trace.fresh_trace_id (); tc_parent_span = -1 }
      in
      let cl = connect_exn sock in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (* one good request, then an all-bad burst: the daemon is
             seconds old, so both alerting windows hold the same burst
             and the availability SLO must fire *)
          (match
             Client.compile cl ~name:"good" ~trace ~worker:"Doubler.apply"
               doubler_source
           with
          | Ok _ -> ()
          | Error f -> Alcotest.failf "good: %s" (Client.failure_to_string f));
          for i = 1 to 6 do
            match
              Client.compile cl ~deadline_ms:0
                ~name:(Printf.sprintf "doomed-%d" i)
                ~worker:"Doubler.apply" doubler_source
            with
            | Ok _ -> Alcotest.fail "a deadline-0 request cannot succeed"
            | Error _ -> ()
          done);
      let a1 = alertz () in
      Alcotest.(check bool) "burn flips /alertz unhealthy" true
        (contains "\"healthy\":false" a1);
      Alcotest.(check bool) "the availability objective fires" true
        (contains "\"state\":\"firing\"" a1);
      Alcotest.(check bool) "bad events tallied" true (contains "\"bad\":6" a1);
      (* the same state machine is exposed as metrics *)
      let metrics = http_get port "GET /metrics HTTP/1.0\r\n\r\n" in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " in /metrics") true
            (contains sub metrics))
        [
          "lime_slo_state{slo=\"availability\"} 2";
          "lime_slo_burn_rate{slo=\"availability\",window=\"fast\"}";
          "lime_slo_events{slo=\"availability\",result=\"bad\"} 6";
          "lime_slo_objective{slo=\"availability\"} 0.99";
          "lime_process_start_time_seconds";
          (* the latency summary saw exactly the answered request *)
          "lime_server_request_seconds_summary_count 1";
          "lime_server_request_seconds_summary{quantile=\"0.5\"}";
          (* the traced request left its id as a histogram exemplar *)
          "# {trace_id=\"" ^ trace.Wire.tc_trace_id ^ "\"}";
        ];
      (* the flight recorder: the good request is among the slowest, the
         doomed ones are errors, each with its grafted span tree *)
      let slow = http_get port "GET /debug/slow HTTP/1.0\r\n\r\n" in
      Alcotest.(check bool) "/debug/slow serves the good request" true
        (contains "\"name\":\"good\"" slow);
      Alcotest.(check bool) "slow entry carries the span tree" true
        (contains "server.request" slow
        && contains "server.queue_wait" slow);
      Alcotest.(check bool) "slow entry keeps the trace id" true
        (contains trace.Wire.tc_trace_id slow);
      (match Testutil.json_exn ~what:"/debug/slow" (http_body slow) with
      | Json.List (first :: _) ->
          Alcotest.(check bool) "flight entry ts is Unix time" true
            (epoch_ts first > 1e9)
      | _ -> Alcotest.fail "/debug/slow is not a non-empty list");
      let errors = http_get port "GET /debug/errors HTTP/1.0\r\n\r\n" in
      Alcotest.(check bool) "/debug/errors holds the doomed requests" true
        (contains "\"outcome\":\"deadline\"" errors
        && contains "doomed-6" errors);
      (* statusz reports the recorder's occupancy next to the trace
         buffer's drop counter *)
      let status = http_get port "GET /statusz HTTP/1.0\r\n\r\n" in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " in /statusz") true
            (contains sub status))
        [ "\"flight\":{\"capacity\":32,\"occupancy\":"; "\"dropped_spans\":" ])

(* a graceful drain writes the post-mortem file without being asked *)
let test_flight_dump_on_drain () =
  let dump_file = Filename.temp_file "limed-flight" ".jsonl" in
  Sys.remove dump_file;
  let trace =
    { Wire.tc_trace_id = Trace.fresh_trace_id (); tc_parent_span = -1 }
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove dump_file with Sys_error _ -> ())
    (fun () ->
      with_server
        ~reshape:(fun c -> { c with Server.sc_flight_dump = Some dump_file })
        (fun sock _server ->
          let cl = connect_exn sock in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              (match
                 Client.compile cl ~name:"kept" ~trace
                   ~worker:"Doubler.apply" doubler_source
               with
              | Ok _ -> ()
              | Error f ->
                  Alcotest.failf "kept: %s" (Client.failure_to_string f));
              match
                Client.compile cl ~deadline_ms:0 ~name:"lost"
                  ~worker:"Doubler.apply" doubler_source
              with
              | Ok _ -> Alcotest.fail "deadline-0 cannot succeed"
              | Error _ -> ()));
      (* with_server has drained and joined: the dump is complete *)
      let lines =
        In_channel.with_open_text dump_file In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check bool)
        (Printf.sprintf "entries dumped (%d lines)" (List.length lines))
        true
        (List.length lines >= 2);
      List.iter
        (fun l ->
          let v = Testutil.json_exn ~what:"dump line" l in
          Alcotest.(check bool) "line names its ring" true
            (List.mem (Json.member "ring" v)
               [ Some (Json.Str "errors"); Some (Json.Str "slow") ]);
          Alcotest.(check bool) "line wraps an entry object" true
            (match Json.member "entry" v with
            | Some (Json.Obj _) -> true
            | _ -> false))
        lines;
      let whole = String.concat "\n" lines in
      Alcotest.(check bool) "the answered request is in the dump" true
        (Util.contains_substring ~sub:"\"name\":\"kept\"" whole);
      Alcotest.(check bool) "its trace id survives into the post-mortem" true
        (Util.contains_substring ~sub:trace.Wire.tc_trace_id whole);
      Alcotest.(check bool) "the doomed request is in the errors ring" true
        (Util.contains_substring ~sub:"\"outcome\":\"deadline\"" whole);
      Alcotest.(check bool) "span trees survive into the post-mortem" true
        (Util.contains_substring ~sub:"server.request" whole))

let () =
  Alcotest.run "server"
    [
      ( "fidelity",
        [
          test_case "registry round-trips byte-identical" test_registry_roundtrip;
          test_case "cache provenance on the wire" test_cache_provenance;
          test_case "concurrent clients" test_concurrent_clients;
        ] );
      ( "robustness",
        [
          test_case "overload, deadline, drain" test_overload_deadline_drain;
          test_case "drain completes in-flight work" test_drain_completes_inflight;
          test_case "draining refuses new work" test_draining_refuses_new_work;
          test_case "unknown config" test_unknown_config;
          test_case "garbage does not kill the daemon" test_garbage_resilience;
          test_case "stats over the wire" test_stats_over_the_wire;
          test_case "idle client closed" test_idle_client_closed;
        ] );
      ( "tracing",
        [
          test_case "merged trace is well-nested" test_merged_trace_well_nested;
        ] );
      ( "observability plane",
        [
          test_case "http endpoints" test_http_endpoints;
          test_case "http half request" test_http_half_request;
          test_case "healthz flips while draining" test_healthz_flips_while_draining;
          test_case "access log" test_access_log;
          test_case "always-on work per warm hit" test_always_on_warm_path;
          test_case "generated traffic" test_generated_traffic;
          test_case "alertz flips under deadline-0 burn" test_alertz_flips_under_burn;
          test_case "flight dump on drain" test_flight_dump_on_drain;
        ] );
    ]
