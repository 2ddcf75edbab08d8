(** Compile-and-run service façade — see the interface. *)

module Pipeline = Lime_gpu.Pipeline
module Memopt = Lime_gpu.Memopt
module Comm = Lime_runtime.Comm
module Engine = Lime_runtime.Engine
module Diag = Lime_support.Diag
module Loc = Lime_support.Loc
module Hooks = Lime_support.Hooks
module Beam = Lime_support.Beam
module Search = Lime_rewrite.Search

type origin = Memory | Disk | Compiled

let origin_name = function
  | Memory -> "memory"
  | Disk -> "disk"
  | Compiled -> "compiled"

type t = {
  sv_cache : Pipeline.compiled Kcache.t;
  sv_kernel_dir : string option;
  sv_tunes : Tunestore.t option;
  sv_registry : Metrics.registry;
  sv_disk_hits : int Atomic.t;
  sv_pool : Pool.t;
  sv_search_memo : Search.memo option Atomic.t;
      (** the rewrite-search memo of the last kernel searched *)
}

(* Bump when the shape of Pipeline.compiled changes: artifacts are
   Stdlib.Marshal snapshots and must not be read across layouts.  The MD5
   of the marshalled bytes follows the magic and is checked before
   unmarshalling, since Marshal trusts its input: a flipped bit would
   crash the process or load a wrong kernel.  A stale, corrupt or
   unreadable artifact is simply a miss. *)
let artifact_magic = "lime-kernel-artifact 4\n"

let mkdir_p = Tunestore.(fun dir -> ignore (open_ dir))

let create ?cache_dir ?(capacity = 64) ?(registry = Metrics.default)
    ?(jobs = 1) () =
  let sv_kernel_dir =
    Option.map
      (fun d ->
        let dir = Filename.concat d "kernels" in
        mkdir_p dir;
        dir)
      cache_dir
  in
  let sv_tunes =
    Option.map (fun d -> Tunestore.open_ (Filename.concat d "tune")) cache_dir
  in
  let sv_pool = Pool.create ~jobs () in
  {
    (* one stripe per job: a sequential service keeps the exact
       single-LRU semantics, a parallel one spreads the lock *)
    sv_cache = Kcache.create ~capacity ~stripes:(Pool.jobs sv_pool) ();
    sv_kernel_dir;
    sv_tunes;
    sv_registry = registry;
    sv_disk_hits = Atomic.make 0;
    sv_pool;
    sv_search_memo = Atomic.make None;
  }

let cache t = t.sv_cache
let tunestore t = t.sv_tunes
let registry t = t.sv_registry
let stats t = Kcache.stats t.sv_cache
let disk_hits t = Atomic.get t.sv_disk_hits
let pool t = t.sv_pool
let jobs t = Pool.jobs t.sv_pool
let queue_depth t = Pool.queue_length t.sv_pool
let shutdown t = Pool.shutdown t.sv_pool

let request_digest ?device ?config ~worker source =
  Digest.of_request ?device ?config ~worker source

(* ------------------------------------------------------------------ *)
(* Content-addressed artifact store                                    *)
(* ------------------------------------------------------------------ *)

let artifact_path dir key = Filename.concat dir (Digest.to_hex key ^ ".art")
let opencl_path dir key = Filename.concat dir (Digest.to_hex key ^ ".cl")

let disk_load t key : Pipeline.compiled option =
  match t.sv_kernel_dir with
  | None -> None
  | Some dir ->
      Trace.with_span Trace.default ~cat:"service"
        ~args:[ ("key", Digest.to_hex key) ]
        "service.artifact_load"
        (fun () ->
          let file = artifact_path dir key in
          if not (Sys.file_exists file) then None
          else
            try
              let s = In_channel.with_open_bin file In_channel.input_all in
              let m = String.length artifact_magic in
              let body = String.sub s (m + 16) (String.length s - m - 16) in
              if String.sub s 0 m <> artifact_magic
                 || String.sub s m 16 <> Stdlib.Digest.string body
              then None
              else Some (Stdlib.Marshal.from_string body 0 : Pipeline.compiled)
            with _ -> None)

let disk_store t key (c : Pipeline.compiled) =
  match t.sv_kernel_dir with
  | None -> ()
  | Some dir ->
      Trace.with_span Trace.default ~cat:"service"
        ~args:[ ("key", Digest.to_hex key) ]
        "service.artifact_store"
        (fun () ->
          try
            let body = Stdlib.Marshal.to_string c [] in
            Out_channel.with_open_bin (artifact_path dir key) (fun oc ->
                Out_channel.output_string oc artifact_magic;
                Out_channel.output_string oc (Stdlib.Digest.string body);
                Out_channel.output_string oc body);
            (* the generated OpenCL rides along in the clear, so the cache
               doubles as a browsable content-addressed kernel store *)
            Out_channel.with_open_text (opencl_path dir key) (fun oc ->
                Out_channel.output_string oc c.Pipeline.cp_opencl)
          with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Cached compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* The cached-compile sequence every entry point runs: the in-memory LRU,
   then the artifact store, then the compiler (persisting what it
   builds).  [origin] records which of the three answered. *)
let cached t key origin ~config ~name ~worker source =
  Kcache.find_or_add t.sv_cache (Digest.to_hex key) (fun () ->
      match disk_load t key with
      | Some c ->
          Atomic.incr t.sv_disk_hits;
          origin := Disk;
          c
      | None ->
          let c = Pipeline.compile ~config ~name ~worker source in
          disk_store t key c;
          origin := Compiled;
          c)

let compile_ex t ?(config = Memopt.config_all) ?(name = "<service>") ~worker
    source =
  let key = Digest.of_request ~config ~worker source in
  let origin = ref Memory in
  Trace.begin_span Trace.default ~cat:"service"
    ~args:[ ("worker", worker); ("key", Digest.to_hex key) ]
    "service.compile";
  let c =
    Fun.protect
      ~finally:(fun () ->
        Trace.end_span Trace.default
          ~args:[ ("origin", origin_name !origin) ]
          "service.compile")
      (fun () -> cached t key origin ~config ~name ~worker source)
  in
  (c, !origin)

let compile t ?config ?name ~worker source =
  fst (compile_ex t ?config ?name ~worker source)

type request = {
  rq_source : string;
  rq_worker : string;
  rq_config : Memopt.config;
  rq_name : string;
}

let request ?(config = Memopt.config_all) ?(name = "<service>") ~worker
    source =
  { rq_source = source; rq_worker = worker; rq_config = config; rq_name = name }

(* One request, cached and fault-isolated: compiler diagnostics come back
   as [Error]; any other exception (a corrupt artifact store, say) is
   wrapped as a Runtime diagnostic so one bad request never aborts its
   batch. *)
let compile_one t (r : request) : (Pipeline.compiled, Diag.t) result =
  let key =
    Digest.of_request ~config:r.rq_config ~worker:r.rq_worker r.rq_source
  in
  try
    Ok
      (cached t key (ref Memory) ~config:r.rq_config ~name:r.rq_name
         ~worker:r.rq_worker r.rq_source)
  with
  | Diag.Error_exn d -> Error d
  | exn ->
      Error
        (Diag.make ~phase:Diag.Runtime ~loc:Loc.dummy "%s (request %s)"
           (Printexc.to_string exn) r.rq_name)

let compile_many t (reqs : request list) :
    (Pipeline.compiled, Diag.t) result list =
  (* duplicates inside the batch ride the first occurrence's future: the
     coalescing window, kept across the pool dispatch *)
  let in_flight = Hashtbl.create 16 in
  let dup = ref 0 in
  let futures =
    List.map
      (fun r ->
        let key =
          Digest.to_hex
            (Digest.of_request ~config:r.rq_config ~worker:r.rq_worker
               r.rq_source)
        in
        match Hashtbl.find_opt in_flight key with
        | Some fut ->
            incr dup;
            fut
        | None ->
            let fut = Pool.submit t.sv_pool (fun () -> compile_one t r) in
            Hashtbl.replace in_flight key fut;
            fut)
      reqs
  in
  Kcache.note_coalesced t.sv_cache !dup;
  List.map Pool.await futures

(* ------------------------------------------------------------------ *)
(* Tunestore-aware tuning                                              *)
(* ------------------------------------------------------------------ *)

(* The replay-or-search path the sweep and both searches share: a stored
   choice ([stored] reads it out of the record) replays without searching;
   with none, or one that no longer applies, [search] runs and [record]
   turns its winner into the record stored for next time. *)
let tuned t ~digest ~device ~stored ~replay ~search ~record =
  let search_and_store () =
    let best, o = search () in
    Option.iter
      (fun ts -> Tunestore.store ts ~digest ~device (record best))
      t.sv_tunes;
    (best, `Searched o)
  in
  match
    Option.bind t.sv_tunes (fun ts ->
        Option.bind (Tunestore.load ts ~digest ~device) stored)
  with
  | None -> search_and_store ()
  | Some choice -> (
      match replay choice with
      | Ok c -> (c, `Replayed)
      | Error _ -> search_and_store ())

(* Sweep records are keyed by the plain device name.  A hit re-times the
   stored configuration alone; a miss prices the eight configurations
   across the pool (Pool.map keeps their order, so the ranking is the
   sequential sweep's) and stores the winner. *)
let sweep t d ~device_key ~digest kernel ~shapes ~scalars =
  let entries, how =
    tuned t ~digest ~device:device_key
      ~stored:(fun r ->
        Some (r.Tunestore.tr_config_name, r.Tunestore.tr_config))
      ~replay:(fun (name, cfg) ->
        Ok
          [
            Gpusim.Autotune.entry name cfg
              (Gpusim.Autotune.time_config_ex d kernel cfg ~shapes ~scalars);
          ])
      ~search:(fun () ->
        ( Gpusim.Autotune.sweep_with ~map:(Pool.map t.sv_pool) d kernel ~shapes
            ~scalars,
          () ))
      ~record:(fun entries ->
        let best = List.hd entries in
        {
          Tunestore.tr_config_name = best.Gpusim.Autotune.at_name;
          tr_config = best.Gpusim.Autotune.at_config;
          tr_time_s = best.Gpusim.Autotune.at_time_s;
          tr_sequence = None;
          tr_placement = None;
        })
  in
  (entries, match how with `Replayed -> `Hit | `Searched () -> `Miss)

(* Beam results live in the tunestore beside the Fig 8 sweep records,
   under a ".beam"-suffixed device key so the two kinds of record never
   clobber each other.  A schedule that no longer replays (store written
   against a different kernel shape) is treated as a miss.  A search takes
   the last kernel's memo out of its slot and puts it back when done, so
   tuning one kernel on several devices walks and analyzes each body once;
   a search that runs meanwhile finds the slot empty and builds its own,
   so no two searches share a memo. *)
let beam_device_key device = device ^ ".beam"

let beam_schedule t (d : Gpusim.Device.t) ~device_key ~digest ?width ?depth
    (k : Lime_gpu.Kernel.kernel) ~shapes ~scalars :
    Search.candidate * [ `Replayed | `Searched of Search.outcome ] =
  tuned t ~digest ~device:(beam_device_key device_key)
    ~stored:(fun r -> r.Tunestore.tr_sequence)
    ~replay:(fun seq -> Search.replay d k seq ~shapes ~scalars)
    ~search:(fun () ->
      let memo =
        match Atomic.exchange t.sv_search_memo None with
        | Some m -> m
        | None -> Search.create_memo ()
      in
      Fun.protect
        ~finally:(fun () -> Atomic.set t.sv_search_memo (Some memo))
        (fun () ->
          let o = Search.search ~memo ?width ?depth d k ~shapes ~scalars in
          (o.Search.so_best, o)))
    ~record:(fun best ->
      {
        Tunestore.tr_config_name = "beam";
        tr_config = best.Search.sc_state.Lime_rewrite.Rewrite.st_config;
        tr_time_s = best.Search.sc_time_s;
        tr_sequence = Some best.Search.sc_sequence;
        tr_placement = None;
      })

module Sched = Lime_sched

(* Placement records live under a fixed pseudo-device key: a placement
   spans all devices, so no single device name applies, and the constant
   keeps placement records from clobbering sweep or beam records.  A
   placement that no longer fits (store written against a different
   pipeline) is treated as a miss. *)
let sched_device_key = "multi.sched"

let sched_placement t ~digest ~firings
    (stages : Sched.Probe.stage list) :
    Sched.Search.candidate
    * [ `Replayed | `Searched of Sched.Search.outcome ] =
  tuned t ~digest ~device:sched_device_key
    ~stored:(fun r ->
      Option.bind r.Tunestore.tr_placement (fun spec ->
          Result.to_option (Sched.Placement.of_spec spec)))
    ~replay:(Sched.Search.replay ~firings stages)
    ~search:(fun () ->
      let o = Sched.Search.search ~firings stages in
      (o.Sched.Search.po_best, o))
    ~record:(fun best ->
      {
        Tunestore.tr_config_name = "sched";
        tr_config = Lime_gpu.Memopt.config_all;
        tr_time_s = best.Sched.Search.pc_time_s;
        tr_sequence = None;
        tr_placement =
          Some (Sched.Placement.to_spec best.Sched.Search.pc_placement);
      })

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let export_stats t =
  let reg = t.sv_registry in
  let s = Kcache.stats t.sv_cache in
  Metrics.set (Metrics.gauge reg "lime_kcache_hits") (float_of_int s.Kcache.hits);
  Metrics.set (Metrics.gauge reg "lime_kcache_misses") (float_of_int s.Kcache.misses);
  Metrics.set (Metrics.gauge reg "lime_kcache_evictions") (float_of_int s.Kcache.evictions);
  Metrics.set (Metrics.gauge reg "lime_kcache_coalesced") (float_of_int s.Kcache.coalesced);
  Metrics.set (Metrics.gauge reg "lime_kcache_contended") (float_of_int s.Kcache.contended);
  Metrics.set (Metrics.gauge reg "lime_kcache_disk_hits") (float_of_int (Atomic.get t.sv_disk_hits));
  Metrics.set (Metrics.gauge reg "lime_kcache_entries") (float_of_int (Kcache.length t.sv_cache))

let expose t =
  export_stats t;
  Metrics.expose t.sv_registry

let instrument ?(registry = Metrics.default) () =
  let compile_total =
    Metrics.counter registry ~help:"completed Pipeline.compile calls"
      "lime_compile_total"
  in
  let compile_seconds =
    Metrics.histogram registry ~help:"Pipeline.compile CPU seconds"
      "lime_compile_seconds"
  in
  Hooks.add Pipeline.compile_hooks ~key:"metrics" (fun (_worker, seconds) ->
      Metrics.inc compile_total;
      Metrics.observe compile_seconds seconds);
  (* each search (the rewrite engine's beam, the multi-device placement
     search) and its stored-choice replays, as lime_<search>_* families *)
  let search_metrics search =
    let name suffix = Printf.sprintf "lime_%s_%s" search suffix in
    let counter suffix help = Metrics.counter registry ~help (name suffix) in
    let searches = counter "searches_total" "searches run"
    and evals = counter "evals_total" "cost-model evaluations spent searching"
    and improved =
      counter "improved_total" "searches whose winner beat their baselines"
    and replays =
      counter "replays_total" "stored choices replayed without re-searching"
    and best_time =
      Metrics.gauge registry
        ~help:"modeled seconds of the most recent search's winner"
        (name "best_time_s")
    in
    let observe : Beam.event -> unit = function
      | Beam.Begin _ | Beam.Level _ -> ()
      | Beam.End e ->
          Metrics.inc searches;
          Metrics.inc ~by:e.evals evals;
          Metrics.set best_time e.best_time_s;
          if e.improved then Metrics.inc improved
      | Beam.Replay { ok; _ } -> if ok then Metrics.inc replays
    in
    (search, observe)
  in
  let observers = List.map search_metrics [ "rewrite"; "sched" ] in
  Hooks.add Beam.hooks ~key:"metrics" (fun (search, ev) ->
      Option.iter (fun observe -> observe ev) (List.assoc_opt search observers));
  let device_firings =
    Metrics.counter registry ~help:"task firings offloaded to the device"
      "lime_firings_device_total"
  in
  let host_firings =
    Metrics.counter registry ~help:"task firings run as host bytecode"
      "lime_firings_host_total"
  in
  let leg name =
    Metrics.histogram registry
      ~help:("per-firing " ^ name ^ " leg of Comm.phases, seconds")
      ("lime_comm_" ^ name ^ "_seconds")
  in
  let java_marshal = leg "java_marshal"
  and jni = leg "jni"
  and c_marshal = leg "c_marshal"
  and setup = leg "setup"
  and pcie = leg "pcie"
  and kernel = leg "kernel"
  and host = leg "host" in
  (* simulated hardware counters, accumulated across device firings *)
  let ctr name help =
    Metrics.gauge registry ~help ("lime_counters_" ^ name)
  in
  let ct_gtx_coalesced = ctr "gtx_coalesced" "coalesced global-memory transactions"
  and ct_gtx_uncoalesced = ctr "gtx_uncoalesced" "uncoalesced global-memory transactions"
  and ct_bytes_global = ctr "bytes_global" "bytes moved over the device-memory bus"
  and ct_cache_hits = ctr "cache_hits" "L1/L2 cache hits on global accesses"
  and ct_cache_misses = ctr "cache_misses" "L1/L2 cache misses on global accesses"
  and ct_bank_replays = ctr "bank_replays" "local-memory bank-conflict replays"
  and ct_const_serialized = ctr "const_serialized" "serialized (divergent) constant reads"
  and ct_tex_fetches = ctr "tex_fetches" "texture fetches"
  and ct_warps = ctr "warps" "warps launched"
  and ct_occupancy = ctr "occupancy_last" "occupancy of the most recent launch" in
  let roofline_count cls =
    Metrics.counter registry
      ~help:("device launches classified " ^ cls)
      ("lime_counters_roofline_" ^ cls ^ "_total")
  in
  let rl_compute = roofline_count "compute"
  and rl_memory = roofline_count "memory"
  and rl_latency = roofline_count "latency" in
  Hooks.add Engine.firing_hooks ~key:"metrics" (fun fi ->
      let phases = fi.Engine.fi_phases in
      if fi.Engine.fi_device then begin
        Metrics.inc device_firings;
        Metrics.observe java_marshal phases.Comm.java_marshal_s;
        Metrics.observe jni phases.Comm.jni_s;
        Metrics.observe c_marshal phases.Comm.c_marshal_s;
        Metrics.observe setup phases.Comm.setup_s;
        Metrics.observe pcie phases.Comm.pcie_s;
        Metrics.observe kernel phases.Comm.kernel_s;
        match fi.Engine.fi_counters with
        | None -> ()
        | Some c ->
            Metrics.add ct_gtx_coalesced c.Gpusim.Counters.ct_gtx_coalesced;
            Metrics.add ct_gtx_uncoalesced c.Gpusim.Counters.ct_gtx_uncoalesced;
            Metrics.add ct_bytes_global c.Gpusim.Counters.ct_bytes_global;
            Metrics.add ct_cache_hits c.Gpusim.Counters.ct_cache_hits;
            Metrics.add ct_cache_misses c.Gpusim.Counters.ct_cache_misses;
            Metrics.add ct_bank_replays c.Gpusim.Counters.ct_bank_replays;
            Metrics.add ct_const_serialized c.Gpusim.Counters.ct_const_serialized;
            Metrics.add ct_tex_fetches c.Gpusim.Counters.ct_tex_fetches;
            Metrics.add ct_warps c.Gpusim.Counters.ct_warps;
            Metrics.set ct_occupancy c.Gpusim.Counters.ct_occupancy;
            Metrics.inc
              (match Gpusim.Counters.classify c with
              | Gpusim.Counters.Compute_bound -> rl_compute
              | Gpusim.Counters.Memory_bound -> rl_memory
              | Gpusim.Counters.Latency_bound -> rl_latency)
      end
      else begin
        Metrics.inc host_firings;
        Metrics.observe host phases.Comm.host_s
      end)

let uninstrument () =
  Hooks.remove Pipeline.compile_hooks "metrics";
  Hooks.remove Engine.firing_hooks "metrics";
  Hooks.remove Beam.hooks "metrics"
