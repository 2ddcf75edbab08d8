(** [limec] — the Lime-for-GPUs command-line compiler.

    Compiles a Lime source file, offloads the requested filter worker, and
    prints any of: the parsed program, the typed summary, the mid-level IR,
    the memory-placement decisions, the generated OpenCL kernel, the host
    glue, or a device-time estimate on one of the Table 2 platforms.

    Several source files (or a --batch manifest) compile as one batch
    through the parallel compile service; --jobs picks the parallelism.

    --daemon turns the process into limed, a resident compile daemon on a
    Unix-domain socket; --connect compiles through a running daemon so
    repeated invocations share one warm cache (see doc/SERVER.md).

    Examples:

      limec nbody.lime --worker NBody.computeForces --emit-opencl
      limec nbody.lime --worker NBody.computeForces --config local+pad+vec \
            --placements
      limec nbody.lime --worker NBody.computeForces --estimate gtx580 \
            --shape particles=4096x4
      limec matmul.lime --worker MatMul.multiply --optimize beam \
            --device gtx8800 --shape packed=1024x32 --explain
      limec a.lime b.lime c.lime --worker Filter.run --jobs 4
      limec --batch programs.manifest --jobs 4
      limec --daemon /tmp/limed.sock --jobs 4 --cache-dir ~/.cache/lime &
      limec --connect /tmp/limed.sock nbody.lime -w NBody.computeForces
*)

module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Service = Lime_service.Service
module Metrics = Lime_service.Metrics
module Trace = Lime_service.Trace
module Slo = Lime_service.Slo
module Server = Lime_server.Server
module Client = Lime_server.Client
module Wire = Lime_server.Wire
module Rewrite = Lime_rewrite.Rewrite
module Search = Lime_rewrite.Search
module SPlacement = Lime_sched.Placement
module SSearch = Lime_sched.Search
module SExec = Lime_sched.Exec

(* one canonical name table, shared with the daemon's wire protocol *)
let configs = Server.configs

let parse_shape s =
  (* particles=4096x4 *)
  let fail msg =
    Printf.eprintf "bad --shape %s: %s (expected NAME=DIMxDIM..., e.g. particles=4096x4)\n" s msg;
    exit 2
  in
  match String.split_on_char '=' s with
  | [ name; dims ] when name <> "" && dims <> "" ->
      let parse_dim tok =
        match int_of_string_opt tok with
        | Some n when n > 0 -> n
        | Some n -> fail (Printf.sprintf "dimension %d must be positive" n)
        | None -> fail (Printf.sprintf "%S is not an integer dimension" tok)
      in
      let shape =
        String.split_on_char 'x' dims |> List.map parse_dim |> Array.of_list
      in
      (name, shape)
  | _ -> fail "missing NAME= or DIMS"

(* the Table 2 platform roster, one row per simulated device — what
   --estimate/--sweep/--device/--multi-device accept *)
let print_devices () =
  Printf.printf "%-8s %-28s %4s %6s %6s %9s %6s %8s %6s %6s %6s\n" "name"
    "model" "SMs" "lanes" "clock" "PCIe" "const" "local" "L1" "L2" "L3";
  List.iter
    (fun (short, d) ->
      Printf.printf "%-8s %-28s %4d %6d %5.2fG %7.1fGB/s %6s %8s %6s %6s %6s\n"
        short d.Gpusim.Device.name d.Gpusim.Device.sms
        d.Gpusim.Device.fp32_lanes d.Gpusim.Device.clock_ghz
        d.Gpusim.Device.pcie_gbs d.Gpusim.Device.info_const_mem
        d.Gpusim.Device.info_local_mem d.Gpusim.Device.info_l1
        d.Gpusim.Device.info_l2 d.Gpusim.Device.info_l3)
    SPlacement.devices

let lookup_device flag dev_name =
  match List.assoc_opt dev_name SPlacement.devices with
  | Some d -> d
  | None ->
      Printf.eprintf "unknown device %s for %s; available: %s\n" dev_name flag
        (String.concat ", " (List.map fst SPlacement.devices));
      exit 2

let lookup_config config_name =
  match List.assoc_opt config_name configs with
  | Some c -> c
  | None ->
      Printf.eprintf "unknown config %s; available: %s\n" config_name
        (String.concat ", " (List.map fst configs));
      exit 2

let check_cache_dir cache_dir =
  match cache_dir with
  | Some d when Sys.file_exists d && not (Sys.is_directory d) ->
      Printf.eprintf "bad --cache-dir %s: not a directory\n" d;
      exit 2
  | _ -> ()

let read_source file =
  try
    if file = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text file In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "cannot read %s: %s\n" file msg;
    exit 2

let setup_observers ~stats ~trace_out ~trace_summary =
  (* metrics and tracing compose: both observers are keyed, so enabling
     one never clobbers the other *)
  if stats then Service.instrument ();
  if trace_out <> None || trace_summary then begin
    Trace.set_enabled Trace.default true;
    Trace.install ()
  end

let finish_observers svc ~stats ~trace_out ~trace_summary =
  if stats then begin
    print_endline "--- metrics ---";
    print_string (Service.expose svc)
  end;
  if trace_summary then begin
    print_endline "--- trace summary ---";
    print_string (Trace.summary Trace.default)
  end;
  match trace_out with
  | None -> ()
  | Some f ->
      Trace.write_chrome Trace.default f;
      Printf.eprintf "trace: wrote %s (%d spans)\n" f
        (List.length (Trace.spans Trace.default))

let run_single file worker config_name jobs cache_capacity dump_ast dump_ir
    placements emit_opencl emit_glue estimate sweep counters shapes cache_dir
    stats run_target run_args trace_out profile trace_summary optimize
    opt_device beam_width beam_depth multi_device explain =
  let source = read_source file in
  let config = lookup_config config_name in
  check_cache_dir cache_dir;
  setup_observers ~stats ~trace_out ~trace_summary;
  let svc =
    Service.create ?cache_dir
      ~capacity:(Option.value cache_capacity ~default:16)
      ~jobs ()
  in
  match
    Lime_support.Diag.protect (fun () ->
        Service.compile_ex svc ~config ~name:file ~worker source)
  with
  | Error d ->
      Printf.eprintf "%s\n" (Lime_support.Diag.to_string d);
      exit 1
  | Ok (c, origin) ->
      if cache_dir <> None then
        Printf.printf "kernel cache: %s (%s)\n"
          (match origin with Service.Compiled -> "miss" | _ -> "hit")
          (Service.origin_name origin);
      let kernel = c.Pipeline.cp_kernel in
      if dump_ast then
        print_endline
          (Lime_frontend.Ast.program_to_string
             (Lime_frontend.Parser.program_of_string ~name:file source));
      if dump_ir then
        List.iter
          (fun s -> print_endline (Lime_ir.Ir.stmt_str s))
          kernel.Lime_gpu.Kernel.k_body;
      (* with --optimize, the placements/OpenCL printed are the optimized
         artifact's — the optimize block below owns them *)
      if placements && optimize = None then
        print_endline (Memopt.describe c.Pipeline.cp_decisions);
      if emit_opencl && optimize = None then
        print_string c.Pipeline.cp_opencl;
      if emit_glue then
        print_string (Lime_gpu.Hostgen.generate kernel);
      let parsed_shapes = lazy (List.map parse_shape shapes) in
      let require_shapes flag =
        if shapes = [] then begin
          Printf.eprintf "%s requires at least one --shape name=DIMS\n" flag;
          exit 2
        end;
        Lazy.force parsed_shapes
      in
      (match optimize with
      | None -> ()
      | Some mode ->
          let d = lookup_device "--optimize" opt_device in
          let opt_shapes = require_shapes "--optimize" in
          let digest =
            Service.request_digest ~device:opt_device ~config ~worker source
          in
          let optimized =
            match mode with
            | `Fig8 -> (
                (* the paper's sweep: winner config, placements and OpenCL
                   byte-identical to --sweep + --config <winner> *)
                let entries, status =
                  Service.sweep svc d ~device_key:opt_device ~digest kernel
                    ~shapes:opt_shapes ~scalars:[]
                in
                if cache_dir <> None then
                  Printf.printf "tunestore: %s\n"
                    (match status with
                    | `Hit -> "hit — re-timed stored best only"
                    | `Miss -> "miss — swept all configurations");
                match entries with
                | [] ->
                    Printf.eprintf "--optimize fig8: empty sweep\n";
                    exit 1
                | best :: _ ->
                    Printf.printf
                      "optimize fig8 on %s: winner %s (%.3e s modeled)\n"
                      d.Gpusim.Device.name best.Gpusim.Autotune.at_name
                      best.Gpusim.Autotune.at_time_s;
                    if explain then
                      print_endline (Gpusim.Autotune.describe entries);
                    Pipeline.reoptimize c best.Gpusim.Autotune.at_config)
            | `Beam ->
                let best, how =
                  Service.beam_schedule svc d ~device_key:opt_device ~digest
                    ~width:beam_width ~depth:beam_depth kernel
                    ~shapes:opt_shapes ~scalars:[]
                in
                if cache_dir <> None then
                  Printf.printf "tunestore: %s\n"
                    (match how with
                    | `Replayed -> "hit — replayed stored schedule"
                    | `Searched _ -> "miss — searched, stored best schedule");
                Printf.printf "optimize beam on %s: %s (%.3e s modeled, %s)\n"
                  d.Gpusim.Device.name
                  (Search.seq_str best.Search.sc_sequence)
                  best.Search.sc_time_s
                  (match how with
                  | `Replayed -> "replayed"
                  | `Searched o ->
                      Printf.sprintf "%d evaluations" o.Search.so_evals);
                (match how with
                | `Searched o when explain -> print_string (Search.explain o)
                | _ -> ());
                Pipeline.reschedule c
                  ~schedule:best.Search.sc_sequence
                  best.Search.sc_state.Rewrite.st_kernel
                  best.Search.sc_state.Rewrite.st_config
          in
          print_endline (Memopt.describe optimized.Pipeline.cp_decisions);
          if emit_opencl then print_string optimized.Pipeline.cp_opencl);
      (match sweep with
      | None -> ()
      | Some dev_name ->
          let d = lookup_device "--sweep" dev_name in
          let shapes = require_shapes "--sweep" in
          Printf.printf "memory-mapping exploration on %s (fastest first):\n"
            d.Gpusim.Device.name;
          let digest =
            Service.request_digest ~device:dev_name ~config ~worker source
          in
          let entries, status =
            Service.sweep svc d ~device_key:dev_name ~digest kernel ~shapes
              ~scalars:[]
          in
          if cache_dir <> None then
            (match status with
            | `Hit ->
                Printf.printf
                  "tunestore: hit — re-timed stored best %s only\n"
                  (List.hd entries).Gpusim.Autotune.at_name
            | `Miss ->
                Printf.printf
                  "tunestore: miss — swept %d configurations, stored best\n"
                  (List.length entries));
          print_endline (Gpusim.Autotune.describe entries);
          (* why the winner wins: its headline counters, priced with it *)
          match entries with
          | best :: _ ->
              let c = best.Gpusim.Autotune.at_counters in
              Printf.printf
                "winner: occupancy %.2f, bank-conflict replays %g, %s\n"
                c.Gpusim.Counters.ct_occupancy c.Gpusim.Counters.ct_bank_replays
                (Gpusim.Counters.roofline_name (Gpusim.Counters.classify c))
          | [] -> ());
      (* --estimate, --counters and --profile print from one launch,
         priced the way --sweep prices it *)
      let launch =
        lazy
          (Gpusim.Autotune.launch kernel c.Pipeline.cp_decisions
             ~shapes:(Lazy.force parsed_shapes) ~scalars:[])
      in
      let priced flag dev_name =
        let d = lookup_device flag dev_name in
        ignore (require_shapes flag);
        let prof, bindings = Lazy.force launch in
        (d, prof, Gpusim.Model.kernel_time_ex d prof bindings)
      in
      Option.iter
        (fun dev_name ->
          let d, prof, (bd, _) = priced "--estimate" dev_name in
          Format.printf "device: %s@." d.Gpusim.Device.name;
          Format.printf "profile: %s@." (Gpusim.Profile.to_string prof);
          Format.printf "estimate: %a@." Gpusim.Model.pp_breakdown bd)
        estimate;
      Option.iter
        (fun dev_name ->
          let _, _, (_, ct) = priced "--counters" dev_name in
          print_string (Gpusim.Counters.report ct))
        counters;
      if profile then
        print_string (Gpusim.Profile.report (fst (Lazy.force launch)));
      (match run_target with
      | None -> ()
      | Some target ->
          let cls, meth =
            match String.split_on_char '.' target with
            | [ cls; meth ] -> (cls, meth)
            | _ ->
                Printf.eprintf "bad --run %s (expected CLASS.METHOD)\n" target;
                exit 2
          in
          let args =
            List.map (fun i -> Lime_ir.Value.VInt i) run_args
          in
          let ecfg = Lime_runtime.Engine.default_config in
          let spec_of_engine placed =
            SPlacement.to_spec
              (List.map
                 (fun (task, d) ->
                   ( task,
                     match d with
                     | None -> SPlacement.Host
                     | Some d -> SPlacement.On d ))
                 placed)
          in
          let report =
            match multi_device with
            | None ->
                let _, report =
                  try
                    Lime_runtime.Engine.run_program ecfg c.Pipeline.cp_module
                      ~cls ~meth args
                  with Lime_ir.Interp.Runtime_error msg ->
                    Printf.eprintf "cannot run %s: %s\n" target msg;
                    exit 1
                in
                report
            | Some mode ->
                (* parse the mode before the program runs so a bad SPEC is
                   a usage error, not a mid-run failure *)
                let mode =
                  if mode = "auto" then `Auto
                  else
                    match SPlacement.of_spec mode with
                    | Ok p -> `Spec p
                    | Error msg ->
                        Printf.eprintf "bad --multi-device: %s\n" msg;
                        exit 2
                in
                let digest =
                  Service.request_digest ~device:"multi" ~config ~worker
                    source
                in
                let explain_replay (c : SSearch.candidate) stages ~firings =
                  if explain then begin
                    let singles, best_single =
                      SSearch.singles ~firings stages
                    in
                    Printf.printf "placement replay: %s\n%s"
                      (SPlacement.to_spec c.SSearch.pc_placement)
                      (SSearch.explain_table ~singles ~best_single c)
                  end
                in
                let choose stages ~firings =
                  match mode with
                  | `Auto when cache_dir <> None ->
                      let best, how =
                        Service.sched_placement svc ~digest ~firings stages
                      in
                      Printf.printf "tunestore: %s\n"
                        (match how with
                        | `Replayed -> "hit — replayed stored placement"
                        | `Searched o ->
                            Printf.sprintf
                              "miss — searched %d placements, stored best"
                              o.SSearch.po_evals);
                      (match how with
                      | `Searched o when explain ->
                          print_string (SSearch.explain o)
                      | `Replayed -> explain_replay best stages ~firings
                      | _ -> ());
                      best.SSearch.pc_placement
                  | `Auto ->
                      let o = SSearch.search ~firings stages in
                      if explain then print_string (SSearch.explain o);
                      o.SSearch.po_best.SSearch.pc_placement
                  | `Spec p -> (
                      match SSearch.replay ~firings stages p with
                      | Error msg ->
                          Printf.eprintf "bad --multi-device: %s\n" msg;
                          exit 2
                      | Ok c ->
                          explain_replay c stages ~firings;
                          c.SSearch.pc_placement)
                in
                let _, report, decisions =
                  try
                    SExec.run_program ecfg ~choose c.Pipeline.cp_module ~cls
                      ~meth args
                  with Lime_ir.Interp.Runtime_error msg ->
                    Printf.eprintf "cannot run %s: %s\n" target msg;
                    exit 1
                in
                List.iter
                  (fun dc ->
                    Printf.printf "placement %s (%d firings)\n"
                      (SPlacement.to_spec dc.SExec.dc_placement)
                      dc.SExec.dc_firings)
                  decisions;
                report
          in
          Printf.printf "run %s: %d firings (%d offloaded, %d host tasks)\n"
            target report.Lime_runtime.Engine.firings
            (List.length report.Lime_runtime.Engine.offloaded_tasks)
            (List.length report.Lime_runtime.Engine.host_tasks);
          if (stats || multi_device <> None)
             && report.Lime_runtime.Engine.placements <> []
          then
            Printf.printf "placements: %s\n"
              (spec_of_engine report.Lime_runtime.Engine.placements);
          if multi_device <> None then
            Printf.printf "overlapped: %.3e s (serial %.3e s)\n"
              report.Lime_runtime.Engine.overlapped_s
              (Lime_runtime.Comm.total report.Lime_runtime.Engine.phases);
          Format.printf "phases: %a@." Lime_runtime.Comm.pp
            report.Lime_runtime.Engine.phases);
      if
        (not dump_ast) && (not dump_ir) && (not placements)
        && (not emit_opencl) && (not emit_glue) && (not profile)
        && estimate = None && sweep = None && counters = None
        && run_target = None && optimize = None
      then begin
        Printf.printf "compiled %s: kernel %s (%s)\n" file
          kernel.Lime_gpu.Kernel.k_name
          (if kernel.Lime_gpu.Kernel.k_parallel then "data-parallel"
           else "sequential");
        print_endline (Memopt.describe c.Pipeline.cp_decisions)
      end;
      finish_observers svc ~stats ~trace_out ~trace_summary;
      Service.shutdown svc

(* ------------------------------------------------------------------ *)
(* Batch mode                                                          *)
(* ------------------------------------------------------------------ *)

type batch_entry = {
  bt_file : string;
  bt_worker : string;
  bt_config_name : string;
}

(* Manifest format: one "FILE WORKER [CONFIG]" entry per line; '#' starts
   a comment, blank lines are skipped.  Documented in doc/SERVICE.md.
   Every parse error names the offending manifest line as file:line. *)
let parse_manifest file =
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "cannot read --batch %s: %s\n" file msg;
      exit 2
  in
  let fail_line i fmt =
    Printf.eprintf "bad --batch %s:%d: " file (i + 1);
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
      fmt
  in
  let check_config i name =
    if not (List.mem_assoc name configs) then
      fail_line i "unknown config %s; available: %s" name
        (String.concat ", " (List.map fst configs))
  in
  let entries = ref [] in
  List.iteri
    (fun i line ->
      let payload =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let words =
        String.map (fun c -> if c = '\t' then ' ' else c) payload
        |> String.split_on_char ' '
        |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> ()
      | [ bt_file; bt_worker ] ->
          entries := { bt_file; bt_worker; bt_config_name = "all" } :: !entries
      | [ bt_file; bt_worker; bt_config_name ] ->
          check_config i bt_config_name;
          entries := { bt_file; bt_worker; bt_config_name } :: !entries
      | _ ->
          fail_line i "expected FILE WORKER [CONFIG], got %S"
            (String.trim line))
    (String.split_on_char '\n' text);
  List.rev !entries

let run_batch entries jobs cache_capacity cache_dir stats trace_out
    trace_summary =
  check_cache_dir cache_dir;
  setup_observers ~stats ~trace_out ~trace_summary;
  let svc =
    Service.create ?cache_dir
      ~capacity:
        (Option.value cache_capacity
           ~default:(max 16 (List.length entries)))
      ~jobs ()
  in
  let reqs =
    List.map
      (fun e ->
        Service.request
          ~config:(lookup_config e.bt_config_name)
          ~name:e.bt_file ~worker:e.bt_worker (read_source e.bt_file))
      entries
  in
  let results = Service.compile_many svc reqs in
  let failed = ref 0 in
  List.iter2
    (fun e r ->
      match r with
      | Ok c ->
          Printf.printf "compiled %s (%s): kernel %s\n" e.bt_file e.bt_worker
            c.Pipeline.cp_kernel.Lime_gpu.Kernel.k_name
      | Error d ->
          incr failed;
          Printf.eprintf "%s: %s\n" e.bt_file (Lime_support.Diag.to_string d))
    entries results;
  let s = Service.stats svc in
  Printf.printf "batch: %d compiled, %d failed (jobs %d, %d cache hits)\n"
    (List.length entries - !failed)
    !failed (Service.jobs svc) s.Lime_service.Kcache.hits;
  finish_observers svc ~stats ~trace_out ~trace_summary;
  Service.shutdown svc;
  if !failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Daemon and client modes                                             *)
(* ------------------------------------------------------------------ *)

let run_daemon socket jobs cache_capacity max_queue idle_timeout cache_dir
    http_port access_log drain_grace flight_capacity flight_dump slo_specs =
  check_cache_dir cache_dir;
  if max_queue < 1 then begin
    Printf.eprintf "bad --max-queue %d: must be at least 1\n" max_queue;
    exit 2
  end;
  if idle_timeout <= 0.0 then begin
    Printf.eprintf "bad --idle-timeout %g: must be positive seconds\n"
      idle_timeout;
    exit 2
  end;
  (match http_port with
  | Some p when p < 0 || p > 0xFFFF ->
      Printf.eprintf "bad --http %d: must be a port number (0 = ephemeral)\n" p;
      exit 2
  | _ -> ());
  if drain_grace < 0.0 then begin
    Printf.eprintf "bad --drain-grace %g: must not be negative\n" drain_grace;
    exit 2
  end;
  let flight_capacity = Option.value flight_capacity ~default:32 in
  if flight_capacity < 1 then begin
    Printf.eprintf
      "bad --flight-capacity %d: must retain at least 1 request per ring\n"
      flight_capacity;
    exit 2
  end;
  let slos =
    List.map
      (fun spec ->
        match Slo.parse_spec spec with
        | Ok d -> d
        | Error msg ->
            Printf.eprintf "bad --slo: %s; expected %s\n" msg Slo.spec_syntax;
            exit 2)
      slo_specs
  in
  let cfg =
    {
      Server.sc_socket = socket;
      sc_jobs = jobs;
      sc_max_inflight = max_queue;
      sc_idle_timeout_s = idle_timeout;
      sc_cache_dir = cache_dir;
      sc_cache_capacity = Option.value cache_capacity ~default:64;
      sc_http_port = http_port;
      sc_access_log = access_log;
      sc_drain_grace_s = drain_grace;
      sc_flight_capacity = flight_capacity;
      sc_flight_dump = flight_dump;
      sc_slos = slos;
    }
  in
  let server =
    try Server.create cfg
    with
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen on %s: %s\n" socket
          (Unix.error_message e);
        exit 1
    | Sys_error msg ->
        Printf.eprintf "limed: %s\n" msg;
        exit 1
  in
  (* SIGTERM/SIGINT request a graceful drain: finish in-flight work,
     flush every reply, remove the socket, exit 0 *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.drain server));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Server.drain server));
  (* SIGQUIT asks for a flight-recorder post-mortem dump without taking
     the daemon down — the operator's "explain yourself" signal *)
  Sys.set_signal Sys.sigquit
    (Sys.Signal_handle (fun _ -> Server.request_flight_dump server));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.eprintf "limed: listening on %s (jobs %d, max in-flight %d)\n%!"
    socket jobs max_queue;
  (match Server.http_port server with
  | Some p -> Printf.eprintf "limed: http on 127.0.0.1:%d\n%!" p
  | None -> ());
  Server.run server;
  let r = Server.report server in
  Printf.eprintf
    "limed: drained — %d requests, %d completed, %d overloaded, %d \
     deadline-exceeded, %d dropped\n%!"
    r.Server.rp_requests r.Server.rp_completed r.Server.rp_rejected
    r.Server.rp_deadline r.Server.rp_dropped;
  exit 0

let connect_exit_code (e : Lime_server.Wire.server_error) =
  match e.Lime_server.Wire.er_code with
  | Lime_server.Wire.Overloaded | Lime_server.Wire.Draining -> 75
      (* EX_TEMPFAIL: retry later *)
  | Lime_server.Wire.Deadline_exceeded -> 124 (* like timeout(1) *)
  | Lime_server.Wire.Compile_error | Lime_server.Wire.Protocol_error -> 1

let run_connect socket files worker config_name deadline_ms emit_opencl
    placements stats drain_req trace_out =
  let tracer = Trace.default in
  if trace_out <> None then Trace.set_enabled tracer true;
  let cl =
    match Client.connect socket with
    | Ok cl -> cl
    | Error msg ->
        Printf.eprintf "limec: %s\n" msg;
        exit 1
  in
  let finally () = Client.close cl in
  Fun.protect ~finally (fun () ->
      if drain_req then begin
        match Client.drain cl with
        | Ok d ->
            Printf.printf "drained: %d completed while draining, %d dropped\n"
              d.Lime_server.Wire.da_completed d.Lime_server.Wire.da_dropped;
            if d.Lime_server.Wire.da_dropped > 0 then exit 1
        | Error f ->
            Printf.eprintf "limec: drain: %s\n" (Client.failure_to_string f);
            exit 1
      end
      else begin
        (match (files, worker) with
        | [], None when stats -> ()
        | [], _ when not stats ->
            Printf.eprintf
              "no input: pass a FILE to compile over --connect (or --stats \
               / --drain)\n";
            exit 2
        | [], _ -> ()
        | [ file ], Some w -> (
            ignore (lookup_config config_name);
            let source = read_source file in
            (* distributed tracing: open the client-side request span and
               propagate (trace id, parent span) in the Compile frame; the
               daemon's spans come home in the Result for grafting *)
            let trace =
              if trace_out = None then None
              else begin
                Trace.begin_span tracer ~cat:"client"
                  ~args:
                    [
                      ("file", file);
                      ("worker", w);
                      ("config", config_name);
                      ("socket", socket);
                    ]
                  "client.request";
                Some
                  {
                    Wire.tc_trace_id = Trace.trace_id tracer;
                    tc_parent_span = Trace.current_span_id tracer;
                  }
              end
            in
            let graft_base_us = Trace.now_us tracer in
            let finish_trace a =
              (match (trace, a) with
              | Some ctx, Some a ->
                  ignore
                    (Trace.graft tracer ~at_us:graft_base_us
                       ~parent:ctx.Wire.tc_parent_span a.Wire.ar_spans)
              | _ -> ());
              if trace <> None then Trace.end_span tracer "client.request";
              match trace_out with
              | None -> ()
              | Some f ->
                  Trace.write_chrome tracer f;
                  Printf.eprintf "trace: wrote %s (%d spans, trace id %s)\n" f
                    (List.length (Trace.spans tracer))
                    (Trace.trace_id tracer)
            in
            match
              Client.compile cl ?deadline_ms ~config:config_name ~name:file
                ?trace ~worker:w source
            with
            | Error (Client.Server_error e) ->
                finish_trace None;
                Printf.eprintf "limec: %s\n"
                  (Client.failure_to_string (Client.Server_error e));
                exit (connect_exit_code e)
            | Error (Client.Transport _ as f) ->
                finish_trace None;
                Printf.eprintf "limec: %s\n" (Client.failure_to_string f);
                exit 1
            | Ok a ->
                finish_trace (Some a);
                (* provenance goes to stderr so stdout stays byte-identical
                   to a local compile *)
                Printf.eprintf "server cache: %s (%s)\n"
                  (if a.Lime_server.Wire.ar_origin = "compiled" then "miss"
                   else "hit")
                  a.Lime_server.Wire.ar_origin;
                if emit_opencl then
                  print_string a.Lime_server.Wire.ar_opencl;
                if placements then
                  print_endline a.Lime_server.Wire.ar_placements;
                if (not emit_opencl) && not placements then begin
                  Printf.printf "compiled %s: kernel %s (%s)\n" file
                    a.Lime_server.Wire.ar_kernel
                    (if a.Lime_server.Wire.ar_parallel then "data-parallel"
                     else "sequential");
                  print_endline a.Lime_server.Wire.ar_placements
                end)
        | [ _ ], None ->
            Printf.eprintf "missing --worker CLASS.METHOD\n";
            exit 2
        | _ ->
            Printf.eprintf "--connect compiles a single FILE per invocation\n";
            exit 2);
        if stats then begin
          match Client.stats cl with
          | Ok text ->
              print_endline "--- server metrics ---";
              print_string text
          | Error f ->
              Printf.eprintf "limec: stats: %s\n" (Client.failure_to_string f);
              exit 1
        end
      end)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run files worker config_name jobs batch daemon connect drain_req
    deadline_ms max_queue idle_timeout cache_capacity http_port access_log
    drain_grace flight_capacity flight_dump slo_specs dump_ast dump_ir
    placements emit_opencl emit_glue estimate
    sweep counters shapes cache_dir stats run_target run_args trace_out
    profile trace_summary optimize opt_device beam_width beam_depth
    list_devices multi_device explain =
  if list_devices then begin
    print_devices ();
    exit 0
  end;
  if multi_device <> None && run_target = None then begin
    Printf.eprintf "--multi-device needs --run CLASS.METHOD\n";
    exit 2
  end;
  if jobs < 1 then begin
    Printf.eprintf "bad --jobs %d: must be at least 1\n" jobs;
    exit 2
  end;
  (match cache_capacity with
  | Some n when n < 1 ->
      Printf.eprintf
        "bad --cache-capacity %d: must be a positive number of cached \
         kernels\n"
        n;
      exit 2
  | _ -> ());
  let require_worker () =
    match worker with
    | Some w -> w
    | None ->
        Printf.eprintf "missing --worker CLASS.METHOD\n";
        exit 2
  in
  let reject_over what flag_set =
    if flag_set then begin
      Printf.eprintf
        "%s runs on the daemon; per-artifact inspection flags (--dump-ast, \
         --dump-ir, --estimate, --sweep, --counters, --profile, --shape, \
         --run, --multi-device, --trace-summary, --emit-glue, --batch, \
         --cache-dir, --optimize, --explain) are local-only (--trace \
         additionally composes with --connect)\n"
        what;
      exit 2
    end
  in
  if beam_width < 1 then begin
    Printf.eprintf "bad --beam-width %d: must be at least 1\n" beam_width;
    exit 2
  end;
  if beam_depth < 0 then begin
    Printf.eprintf "bad --beam-depth %d: must not be negative\n" beam_depth;
    exit 2
  end;
  let reject_daemon_only () =
    if
      http_port <> None || access_log <> None || drain_grace <> None
      || flight_capacity <> None || flight_dump <> None || slo_specs <> []
    then begin
      Printf.eprintf
        "--http, --access-log, --drain-grace, --flight-capacity, \
         --flight-dump and --slo configure the daemon; they need --daemon \
         SOCK\n";
      exit 2
    end
  in
  match (daemon, connect) with
  | Some _, Some _ ->
      Printf.eprintf "--daemon and --connect are mutually exclusive\n";
      exit 2
  | Some socket, None ->
      reject_over "--daemon"
        (dump_ast || dump_ir || placements || emit_opencl || emit_glue
        || profile || trace_summary || drain_req || stats || explain
        || estimate <> None || sweep <> None || counters <> None
        || run_target <> None || shapes <> [] || trace_out <> None
        || batch <> None || files <> [] || optimize <> None
        || multi_device <> None);
      run_daemon socket jobs cache_capacity max_queue idle_timeout cache_dir
        http_port access_log
        (Option.value drain_grace ~default:0.0)
        flight_capacity flight_dump slo_specs
  | None, Some socket ->
      reject_daemon_only ();
      reject_over "--connect"
        (dump_ast || dump_ir || emit_glue || profile || trace_summary
        || explain
        || estimate <> None || sweep <> None || counters <> None
        || run_target <> None || shapes <> []
        || batch <> None || cache_dir <> None || optimize <> None
        || multi_device <> None);
      run_connect socket files worker config_name deadline_ms emit_opencl
        placements stats drain_req trace_out
  | None, None -> (
      reject_daemon_only ();
      if drain_req then begin
        Printf.eprintf "--drain needs --connect SOCK\n";
        exit 2
      end;
      if deadline_ms <> None then begin
        Printf.eprintf "--deadline-ms needs --connect SOCK\n";
        exit 2
      end;
      match (files, batch) with
      | [], None ->
          Printf.eprintf "no input: pass a FILE ('-' for stdin) or --batch\n";
          exit 2
      | [ file ], None ->
          (* the one-file invocation is the classic compiler path: every
             flag applies, output is unchanged *)
          run_single file (require_worker ()) config_name jobs cache_capacity
            dump_ast dump_ir placements emit_opencl emit_glue estimate sweep
            counters shapes cache_dir stats run_target run_args trace_out
            profile trace_summary optimize opt_device beam_width beam_depth
            multi_device explain
      | files, batch ->
          if
            dump_ast || dump_ir || placements || emit_opencl || emit_glue
            || profile || estimate <> None || sweep <> None
            || counters <> None || run_target <> None || shapes <> []
            || optimize <> None || multi_device <> None
          then begin
            Printf.eprintf
              "batch compilation only compiles; per-artifact inspection \
               flags (--dump-ast, --dump-ir, --placements, --emit-opencl, \
               --emit-glue, --estimate, --sweep, --counters, --profile, \
               --shape, --run, --multi-device, --optimize) need a single \
               FILE\n";
            exit 2
          end;
          let from_files =
            match files with
            | [] -> []
            | _ ->
                let w = require_worker () in
                List.map
                  (fun f ->
                    { bt_file = f; bt_worker = w; bt_config_name = config_name })
                  files
          in
          let from_manifest =
            match batch with Some m -> parse_manifest m | None -> []
          in
          run_batch (from_files @ from_manifest) jobs cache_capacity cache_dir
            stats trace_out trace_summary)

open Cmdliner

let files =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:
          "Lime source file(s) ('-' for stdin).  One file compiles with \
           the full flag set; several compile as a batch (see --jobs).")

let worker =
  Arg.(
    value
    & opt (some string) None
    & info [ "worker"; "w" ] ~docv:"CLASS.METHOD"
        ~doc:
          "Filter worker method to offload (required unless every request \
           comes from a --batch manifest).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Compile with N-way parallelism: batches fan out across N - 1 \
           worker domains plus the caller, and --sweep times the eight \
           configurations in parallel.  --jobs 1 (the default) is exactly \
           the sequential compiler.")

let batch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "batch" ] ~docv:"MANIFEST"
        ~doc:
          "Compile every entry of MANIFEST (one 'FILE WORKER [CONFIG]' per \
           line, '#' comments) as one batch through the compile service.")

let config_name =
  Arg.(
    value & opt string "all"
    & info [ "config"; "c" ] ~docv:"CONFIG"
        ~doc:
          "Memory configuration: global, global+vec, local, local+pad, \
           local+pad+vec, constant, constant+vec, texture, all.")

let dump_ast = Arg.(value & flag & info [ "dump-ast" ] ~doc:"Print the parsed program.")
let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the extracted kernel IR.")

let placements =
  Arg.(value & flag & info [ "placements" ] ~doc:"Print memory placements.")

let emit_opencl =
  Arg.(value & flag & info [ "emit-opencl" ] ~doc:"Print the OpenCL kernel.")

let emit_glue =
  Arg.(value & flag & info [ "emit-glue" ] ~doc:"Print the host glue C code.")

let estimate =
  Arg.(
    value
    & opt (some string) None
    & info [ "estimate" ] ~docv:"DEVICE"
        ~doc:"Estimate kernel time on a device: gtx8800, gtx580, hd5970, corei7.")

let sweep_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sweep" ] ~docv:"DEVICE"
        ~doc:
          "Explore all eight memory configurations on a device model and \
           rank them (the paper's §4.2.1 automated exploration).")

let counters_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "counters" ] ~docv:"DEVICE"
        ~doc:
          "Print the launch's simulated hardware counters and roofline \
           classification on a device model (gtx8800, gtx580, hd5970, \
           corei7).  Requires --shape; composes with --profile, \
           --trace-summary and --stats.")

let shapes =
  Arg.(
    value & opt_all string []
    & info [ "shape" ] ~docv:"NAME=DIMS"
        ~doc:"Argument shape for --estimate, e.g. particles=4096x4.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Compile-service cache directory: compiled kernels are stored \
           content-addressed under DIR/kernels and --sweep results persist \
           in the DIR/tune tunestore, so repeated invocations start warm.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the service metrics exposition (compile counters and \
           latency histograms; with --run, also the per-leg communication \
           histograms) after the requested actions.")

let run_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run" ] ~docv:"CLASS.METHOD"
        ~doc:
          "Execute an entry point through the task-graph engine on the \
           simulated GTX 580 (pass integer arguments with --arg).")

let run_args =
  Arg.(
    value & opt_all int []
    & info [ "arg" ] ~docv:"INT"
        ~doc:"Integer argument for --run (repeatable, in order).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of everything this invocation does (compile \
           phases, cache lookups, artifact store, engine firings with their \
           per-leg communication breakdown) and write it to FILE as Chrome \
           trace-event JSON, loadable in chrome://tracing or Perfetto.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print the per-kernel profile report: FLOP mix and per-array \
           memory-access table (use --shape to profile concrete extents; \
           without shapes the counts are the symbolic approximation).")

let trace_summary_arg =
  Arg.(
    value & flag
    & info [ "trace-summary" ]
        ~doc:
          "Print a human-readable aggregate of the recorded spans (per-name \
           inclusive time, share, count) after the requested actions.")

let daemon_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "daemon" ] ~docv:"SOCK"
        ~doc:
          "Run as the resident compile daemon (limed) listening on the \
           Unix-domain socket SOCK.  One process owns the warm kernel \
           cache; clients compile through it with --connect.  SIGTERM \
           drains gracefully: in-flight requests finish, replies flush, \
           the socket is removed, and the daemon exits 0.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Compile through the daemon listening on SOCK instead of \
           locally.  Output on stdout is byte-identical to a local \
           compile; cache provenance is reported on stderr.")

let drain_arg =
  Arg.(
    value & flag
    & info [ "drain" ]
        ~doc:
          "With --connect: ask the daemon to drain gracefully and report \
           how many in-flight requests completed or were dropped.")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "With --connect: give the request a deadline of MS milliseconds \
           from admission; the daemon abandons work it cannot answer in \
           time and replies deadline_exceeded (exit 124).")

let max_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "With --daemon: admission bound — at most N requests queued or \
           running; the next one is refused with an overloaded reply \
           carrying a retry-after hint.")

let idle_timeout_arg =
  Arg.(
    value & opt float 300.0
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With --daemon: close a client connection after SECONDS with no \
           traffic and no in-flight requests.")

let http_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "http" ] ~docv:"PORT"
        ~doc:
          "With --daemon: serve the observability plane on loopback TCP \
           port PORT — GET /metrics (Prometheus exposition), /healthz \
           (200 ok, 503 once draining) and /statusz (JSON status \
           snapshot).  PORT 0 binds an ephemeral port, reported on \
           stderr at startup.")

let access_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "With --daemon: append one JSON line per answered compile \
           request to FILE (timestamp, request id, worker, config, \
           digest, queue wait, duration, outcome, cache origin, trace \
           id).")

let drain_grace_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "drain-grace" ] ~docv:"SECONDS"
        ~doc:
          "With --daemon: keep the observability plane up for SECONDS \
           after a drain completes, so health checkers observe the \
           /healthz flip to draining before the process exits.")

let flight_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-capacity" ] ~docv:"N"
        ~doc:
          "With --daemon: retain the last N errored requests and the N \
           slowest requests (span trees included) in the flight recorder \
           serving /debug/errors and /debug/slow (default 32).")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "With --daemon: append the flight recorder's retained requests \
           to FILE as JSONL on SIGQUIT and on graceful drain — a \
           post-mortem that survives the process.")

let slo_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "With --daemon: watch a service-level objective, evaluated with \
           fast/slow burn-rate windows and served at /alertz and as \
           lime_slo_* metrics.  SPEC is [NAME=]KIND:OBJECTIVE[:THRESHOLD] \
           — e.g. 'latency:0.95:1.0' (95% of answered requests under \
           1.0s) or 'availability:0.99'.  Repeatable; default: \
           availability:0.99 and latency:0.95:1.0.")

let cache_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:
          "In-memory kernel-cache capacity (LRU entries).  Default: 16 \
           for a single file, the batch size (at least 16) for --batch, \
           64 for --daemon.")

let optimize_arg =
  Arg.(
    value
    & opt (some (enum [ ("fig8", `Fig8); ("beam", `Beam) ])) None
    & info [ "optimize" ] ~docv:"MODE"
        ~doc:
          "Pick an optimization schedule on the --device model and print \
           the optimized placements (and, with --emit-opencl, the \
           optimized kernel).  'fig8' sweeps the paper's eight memory \
           configurations and takes the winner; 'beam' runs the rewrite \
           engine's beam search over composable kernel rewrites, which is \
           never worse than fig8 under the cost model.  Requires --shape; \
           with --cache-dir the winning schedule persists in the \
           tunestore and warm reruns replay it without re-searching.")

let opt_device_arg =
  Arg.(
    value & opt string "gtx580"
    & info [ "device" ] ~docv:"DEVICE"
        ~doc:
          "Device model --optimize scores against: gtx8800, gtx580, \
           hd5970, corei7 (default gtx580).")

let beam_width_arg =
  Arg.(
    value & opt int Search.default_width
    & info [ "beam-width" ] ~docv:"N"
        ~doc:"With --optimize beam: states kept per beam level.")

let beam_depth_arg =
  Arg.(
    value & opt int Search.default_depth
    & info [ "beam-depth" ] ~docv:"N"
        ~doc:"With --optimize beam: maximum rewrite-sequence length.")

let devices_arg =
  Arg.(
    value & flag
    & info [ "devices" ]
        ~doc:
          "Print the simulated device table (Table 2 roster: name, SMs, \
           FP32 lanes, clock, PCIe bandwidth, memory spaces) and exit.")

let multi_device_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "multi-device" ] ~docv:"auto|SPEC"
        ~doc:
          "With --run: execute the task pipeline across multiple devices \
           under a placement.  'auto' probes the pipeline and searches for \
           the placement with the best modeled overlapped makespan (with \
           --cache-dir the winner persists in the tunestore and warm \
           reruns replay it); a SPEC 'task=device,...' pins stages \
           explicitly (devices: gtx8800, gtx580, hd5970, corei7, host; \
           unmentioned tasks stay on the host).  --explain prints the \
           scored placement table.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "With --optimize: report how the winner was found — the full \
           ranking for fig8, the baseline/fig8/beam comparison with \
           evaluation counts for beam.  With --multi-device: the scored \
           placement table.")

let cmd =
  let doc = "Lime-for-GPUs compiler (PLDI 2012 reproduction)" in
  Cmd.v
    (Cmd.info "limec" ~version:"1.0.0" ~doc)
    Term.(
      const run $ files $ worker $ config_name $ jobs_arg $ batch_arg
      $ daemon_arg $ connect_arg $ drain_arg $ deadline_ms_arg
      $ max_queue_arg $ idle_timeout_arg $ cache_capacity_arg $ http_arg
      $ access_log_arg $ drain_grace_arg $ flight_capacity_arg
      $ flight_dump_arg $ slo_arg $ dump_ast
      $ dump_ir $ placements $ emit_opencl $ emit_glue $ estimate
      $ sweep_arg $ counters_arg $ shapes $ cache_dir $ stats_arg $ run_arg
      $ run_args $ trace_arg $ profile_arg $ trace_summary_arg
      $ optimize_arg $ opt_device_arg $ beam_width_arg $ beam_depth_arg
      $ devices_arg $ multi_device_arg $ explain_arg)

let () = exit (Cmd.eval cmd)
