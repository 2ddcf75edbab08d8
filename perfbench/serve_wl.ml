(* serve: one op is one compile round trip to a [limec --daemon] run as
   its own process, as users run it: default jobs, a private socket and
   cache directory, [--cache-capacity 16].  Two connections are driven in
   lockstep from one thread, each with at most one request outstanding.
   Requests are a zipf(1.1) draw over a 64-program pool (registry test
   sources, then small generated programs of 0.7–1 KB), so the stream mixes memory hits,
   artifact-store loads and cold compiles.

   A pass is one fixed stream of [stream_len] requests against a fresh
   daemon with an empty cache, so the origin mix of a pass repeats
   exactly; starting and draining the daemon is not timed. *)

open Bench
module Pipeline = Lime_gpu.Pipeline
module Wire = Lime_server.Wire
module Client = Lime_server.Client
module Service = Lime_service.Service

type item = {
  name : string;
  worker : string;
  source : string;
  opencl : string;  (** a local compile of the same request *)
}

type daemon = { pid : int; sock : string; dir : string; c1 : Client.t; c2 : Client.t }

type plan = {
  items : item array;
  stream : int array;  (** pool indices, [stream_len] of them *)
  mutable ready : daemon option;  (** started in set-up, used by the first pass *)
  peaks : Fvec.t;  (** daemon VmHWM at the end of each pass, MiB *)
  mutable local : Service.t option;  (** in-process service for [service.hit_us] *)
}

let pool_size = 64
let stream_len = 2048
let capacity = 16
let codec_sample = 256

let pool seed =
  let registry =
    List.map
      (fun (b : Lime_benchmarks.Bench_def.t) -> (b.name, b.worker, b.source_small))
      Lime_benchmarks.Registry.workloads
  in
  registry @ gen_programs ~seed ~lo:700 ~hi:1000 (pool_size - List.length registry)
  |> List.map (fun (name, worker, source) ->
         { name; worker; source; opencl = (Pipeline.compile ~name ~worker source).cp_opencl })
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

let rec connect sock pid deadline =
  match Client.connect ~timeout_s:30.0 sock with
  | Ok c -> c
  | Error msg ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("the daemon exited during start-up: " ^ msg));
      if Int64.compare (now ()) deadline > 0 then
        failwith ("the daemon did not come up: " ^ msg);
      Unix.sleepf 0.002;
      connect sock pid deadline

let start (o : opts) =
  let dir = fresh_dir o "limed" in
  let sock = Filename.concat dir "d.sock" in
  let cache = Filename.concat dir "cache" in
  Unix.mkdir cache 0o755;
  let err =
    Unix.openfile (Filename.concat dir "stderr") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err;
        Unix.close null)
      (fun () ->
        Unix.create_process o.limec
          [| o.limec; "--daemon"; sock; "--cache-dir"; cache; "--cache-capacity";
             string_of_int capacity |]
          null null err)
  in
  match
    let deadline = Int64.add (now ()) 20_000_000_000L in
    let c1 = connect sock pid deadline in
    let c2 = connect sock pid deadline in
    (c1, c2)
  with
  | c1, c2 -> { pid; sock; dir; c1; c2 }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* Wait for [pid] up to [seconds]; None if it is still running. *)
let wait_exit pid seconds =
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Int64.compare (now ()) deadline < 0 ->
        Unix.sleepf 0.002;
        go ()
    | 0, _ -> None
    | _, status -> Some status
  in
  go ()

(* Drain with SIGTERM: the daemon must exit 0 and remove its socket.
   Its stderr is passed on, and a daemon that will not stop is killed. *)
let stop d =
  Client.close d.c1;
  Client.close d.c2;
  Unix.kill d.pid Sys.sigterm;
  (match wait_exit d.pid 20.0 with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> fault "the daemon did not exit 0 after SIGTERM"
  | None ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      fault "the daemon did not drain within 20 s of SIGTERM");
  if Sys.file_exists d.sock then fault "the daemon left its socket behind";
  let log = Filename.concat d.dir "stderr" in
  if Sys.file_exists log then
    In_channel.with_open_text log In_channel.input_lines
    |> List.iter (fun l -> prerr_endline ("  " ^ l));
  rm_rf d.dir

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let request ~id (it : item) =
  Wire.Compile
    {
      cr_id = id;
      cr_deadline_ms = None;
      cr_name = it.name;
      cr_worker = it.worker;
      cr_config = "all";
      cr_source = it.source;
      cr_trace = None;
      cr_placement = None;
    }

let send c it =
  match Client.send_frame c (request ~id:(Client.fresh_id c) it) with
  | Ok () -> ()
  | Error msg -> failwith ("send: " ^ msg)

let receive c =
  match Client.recv_frame c with
  | Ok (Wire.Result a) -> a
  | Ok (Wire.Err e) -> failwith ("daemon error: " ^ e.er_msg)
  | Ok _ -> failwith "unexpected frame"
  | Error msg -> failwith ("receive: " ^ msg)

(* 2048 requests a pass: the tail lies inside the cold compiles of the
   registry programs, which do not depend on the seed *)
let tail_q = 0.999

let setup (o : opts) =
  let rng = prng o.seed 0x5e in
  let draw = zipf ~s:1.1 pool_size rng in
  let items = pool o.seed in
  let stream = Array.init stream_len (fun _ -> draw ()) in
  { items; stream; ready = Some (start o); peaks = Fvec.create (); local = None }

(* In-process costs of the layers a memory hit goes through, on the
   first requests of the stream: the wire codec both ways, the request
   digest, and a warm [Service.compile_ex]. *)
let probe_layers plan (arts : (item * Wire.artifact) list) =
  let svc =
    match plan.local with
    | Some s -> s
    | None ->
        let s = Service.create ~capacity:pool_size () in
        Array.iter (fun it -> ignore (Service.compile s ~worker:it.worker it.source)) plan.items;
        plan.local <- Some s;
        s
  in
  let payload frame =
    let s = Wire.encode frame in
    String.sub s 4 (String.length s - 4)
  in
  List.iter
    (fun (it, art) ->
      let req = request ~id:1 it in
      let res = Wire.Result art in
      let req_p = payload req and res_p = payload res in
      let ns_of name f = snd (timed (fun () -> span name f)) in
      let enc =
        ns_of "serve.wire.encode_req" (fun () -> ignore (Wire.encode req))
        +. ns_of "serve.wire.encode_res" (fun () -> ignore (Wire.encode res))
      in
      let dec =
        ns_of "serve.wire.decode_req" (fun () -> ignore (Wire.decode req_p))
        +. ns_of "serve.wire.decode_res" (fun () -> ignore (Wire.decode res_p))
      in
      record "serve.wire.encode" enc;
      record "serve.wire.decode" dec;
      ignore
        (span "serve.digest.request" (fun () ->
             Lime_service.Digest.of_request ~worker:it.worker it.source));
      let _, origin =
        span "serve.service.hit" (fun () -> Service.compile_ex svc ~worker:it.worker it.source)
      in
      if origin <> Service.Memory then fault "in-process service missed a warm request")
    arts

let pass (o : opts) plan t =
  let d = match plan.ready with Some d -> d | None -> start o in
  plan.ready <- None;
  let origins = Hashtbl.create 3 in
  let sampled = ref [] in
  let finish c it t0 =
    let art = receive c in
    let ns = ns_since t0 in
    let o = art.Wire.ar_origin in
    Hashtbl.replace origins o (1 + Option.value ~default:0 (Hashtbl.find_opt origins o));
    if !tracing then begin
      record ("serve.client.rtt_" ^ o) ns;
      if List.length !sampled < codec_sample then sampled := (it, art) :: !sampled
    end;
    op_done t ~ns ~what:("compile of " ^ it.name ^ " through the daemon")
      ~ok:(art.Wire.ar_opencl = it.opencl)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Fvec.add plan.peaks (peak_rss_mb d.pid) with Sys_error _ -> ());
      stop d)
    (fun () ->
      let t_start = now () in
      let i = ref 0 in
      (try
         while !i + 1 < stream_len do
           let a = plan.items.(plan.stream.(!i)) and b = plan.items.(plan.stream.(!i + 1)) in
           let ta = now () in
           send d.c1 a;
           let tb = now () in
           send d.c2 b;
           finish d.c1 a ta;
           finish d.c2 b tb;
           i := !i + 2
         done
       with e -> op_failed t ~what:"daemon round trip" e);
      t.busy_ns <- t.busy_ns +. ns_since t_start);
  if !tracing then begin
    probe_layers plan (List.rev !sampled);
    let n o = Option.value ~default:0 (Hashtbl.find_opt origins o) in
    [ ("serve.service.origin_memory", n "memory"); ("serve.service.origin_disk", n "disk");
      ("serve.service.origin_compiled", n "compiled") ]
  end
  else []

let layer_metrics _ =
  let med name = median_of (durations name) in
  let mem_ms = med "serve.client.rtt_memory" /. 1e6 in
  let hit_us = med "serve.service.hit" /. 1e3 in
  let enc_us = med "serve.wire.encode" /. 1e3 and dec_us = med "serve.wire.decode" /. 1e3 in
  let count name = float (Fvec.length (durations name)) in
  let hits = count "serve.client.rtt_memory" +. count "serve.client.rtt_disk" in
  [ ("serve.client.rtt_memory_ms", mem_ms, "ms");
    ("serve.client.rtt_disk_ms", med "serve.client.rtt_disk" /. 1e6, "ms");
    ("serve.client.rtt_compiled_ms", med "serve.client.rtt_compiled" /. 1e6, "ms");
    ("serve.wire.encode_us", enc_us, "us");
    ("serve.wire.decode_us", dec_us, "us");
    ("serve.digest.request_us", med "serve.digest.request" /. 1e3, "us");
    ("serve.service.hit_us", hit_us, "us");
    ("serve.server.residual_us", (mem_ms *. 1e3) -. hit_us -. enc_us -. dec_us, "us");
    ("serve.service.hit_ratio", hits /. (hits +. count "serve.client.rtt_compiled"), "ratio") ]

let peak_rss_mb plan = median_of plan.peaks

let teardown plan =
  Option.iter stop plan.ready;
  plan.ready <- None;
  Option.iter Service.shutdown plan.local
