(** Span-based tracer with Chrome trace-event export — see the interface.

    Concurrency model: every domain that records through a tracer gets its
    own span buffer and its own open-span stack (domain-local storage), so
    recording never takes a lock on the hot path.
    Span ids come from one atomic counter — allocation order is global
    begin order — and the per-domain buffers are merged (sorted by id) on
    every read ({!spans}, export, views), yielding the single monotonic
    timeline.  Parent links never cross domains: a span's parent is the
    innermost open span {e of its own domain}. *)

module Pipeline = Lime_gpu.Pipeline
module Engine = Lime_runtime.Engine
module Comm = Lime_runtime.Comm
module Beam = Lime_support.Beam
module Hooks = Lime_support.Hooks
module Json = Lime_support.Json

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_cat : string;
  mutable sp_args : (string * string) list;
  sp_begin_us : float;
  mutable sp_end_us : float;
}

(** One domain's recording state: spans it began, innermost open first. *)
type dstate = {
  mutable ds_spans : span list;  (** reverse begin order *)
  mutable ds_stack : span list;  (** innermost open span first *)
  mutable ds_count : int;  (** [List.length ds_spans], kept incrementally *)
}

type t = {
  mutable tr_enabled : bool;
  tr_mu : Mutex.t;
      (** guards skew raises, the trace id and the dstate registry *)
  tr_states : dstate list ref;  (** every domain that has recorded *)
  tr_dls : dstate Domain.DLS.key;
  tr_next_id : int Atomic.t;
  tr_skew_us : float Atomic.t;
      (** added to the clock; raised only by {!advance_to}, zeroed by
          {!reset} *)
  mutable tr_t0 : float;
  tr_clock : unit -> float;
  mutable tr_trace_id : string;  (** 32 lowercase hex chars *)
  tr_limit : int Atomic.t;  (** per-domain retained-span cap, 0 = unbounded *)
  tr_dropped : int Atomic.t;  (** spans evicted by the retention cap *)
}

(* 128-bit trace identity.  [Random.State.make_self_init] seeds from
   time + pid; the global counter breaks ties between ids minted in the
   same clock tick. *)
let trace_id_ctr = Atomic.make 0

let fresh_trace_id () =
  let st = Random.State.make_self_init () in
  let mix =
    Int64.mul 0x9E3779B97F4A7C15L
      (Int64.of_int (1 + Atomic.fetch_and_add trace_id_ctr 1))
  in
  Printf.sprintf "%016Lx%016Lx"
    (Int64.logxor (Random.State.bits64 st) mix)
    (Random.State.bits64 st)
  |> String.lowercase_ascii

let default_retention = 65536

let create ?(clock = Lime_support.Clock.now_s) () =
  let tr_mu = Mutex.create () in
  let tr_states = ref [] in
  let tr_dls =
    Domain.DLS.new_key (fun () ->
        let ds = { ds_spans = []; ds_stack = []; ds_count = 0 } in
        Mutex.lock tr_mu;
        tr_states := ds :: !tr_states;
        Mutex.unlock tr_mu;
        ds)
  in
  {
    tr_enabled = true;
    tr_mu;
    tr_states;
    tr_dls;
    tr_next_id = Atomic.make 0;
    tr_skew_us = Atomic.make 0.0;
    tr_t0 = clock ();
    tr_clock = clock;
    tr_trace_id = fresh_trace_id ();
    tr_limit = Atomic.make default_retention;
    tr_dropped = Atomic.make 0;
  }

let default =
  let t = create () in
  t.tr_enabled <- false;
  t

let enabled t = t.tr_enabled
let set_enabled t on = t.tr_enabled <- on

let trace_id t =
  Mutex.lock t.tr_mu;
  let id = t.tr_trace_id in
  Mutex.unlock t.tr_mu;
  id

let retention t = Atomic.get t.tr_limit
let set_retention t n = Atomic.set t.tr_limit (max 0 n)
let dropped_spans t = Atomic.get t.tr_dropped

let dstate t = Domain.DLS.get t.tr_dls

let reset t =
  Mutex.lock t.tr_mu;
  List.iter
    (fun ds ->
      ds.ds_spans <- [];
      ds.ds_stack <- [];
      ds.ds_count <- 0)
    !(t.tr_states);
  Atomic.set t.tr_next_id 0;
  Atomic.set t.tr_dropped 0;
  Atomic.set t.tr_skew_us 0.0;
  t.tr_t0 <- t.tr_clock ();
  t.tr_trace_id <- fresh_trace_id ();
  Mutex.unlock t.tr_mu

(* Non-decreasing across all domains: the clock is monotonic and the skew
   only grows.  Raises are serialized so two racing marks cannot both
   apply their gap. *)
let now_us t =
  ((t.tr_clock () -. t.tr_t0) *. 1e6) +. Atomic.get t.tr_skew_us

let advance_to t ts_us =
  Mutex.lock t.tr_mu;
  let gap = ts_us -. now_us t in
  if gap > 0.0 then Atomic.set t.tr_skew_us (Atomic.get t.tr_skew_us +. gap);
  Mutex.unlock t.tr_mu

(* Retention ring: when a domain's buffer outgrows the cap, drop the
   oldest *closed* spans down to 7/8 of the cap (open spans survive — the
   stack still references them).  Amortized O(1) per push: an O(n) sweep
   runs only once per [limit/8] pushes. *)
let enforce_limit t (ds : dstate) =
  let limit = Atomic.get t.tr_limit in
  if limit > 0 && ds.ds_count > limit then begin
    let keep = limit - (limit / 8) in
    let kept = ref 0 and dropped = ref 0 in
    let rec go = function
      | [] -> []
      | sp :: rest ->
          if !kept < keep || sp.sp_end_us < 0.0 then begin
            incr kept;
            sp :: go rest
          end
          else begin
            incr dropped;
            go rest
          end
    in
    ds.ds_spans <- go ds.ds_spans;
    ds.ds_count <- !kept;
    if !dropped > 0 then ignore (Atomic.fetch_and_add t.tr_dropped !dropped)
  end

let push t (ds : dstate) ~cat ~args ~begin_us ~end_us name =
  let sp =
    {
      sp_id = Atomic.fetch_and_add t.tr_next_id 1;
      sp_parent = (match ds.ds_stack with [] -> -1 | p :: _ -> p.sp_id);
      sp_name = name;
      sp_cat = cat;
      sp_args = args;
      sp_begin_us = begin_us;
      sp_end_us = end_us;
    }
  in
  ds.ds_spans <- sp :: ds.ds_spans;
  ds.ds_count <- ds.ds_count + 1;
  enforce_limit t ds;
  sp

let begin_span t ?(cat = "") ?(args = []) ?ts_us name =
  if t.tr_enabled then begin
    let ds = dstate t in
    let ts = match ts_us with Some ts -> ts | None -> now_us t in
    let sp = push t ds ~cat ~args ~begin_us:ts ~end_us:(-1.0) name in
    ds.ds_stack <- sp :: ds.ds_stack
  end

let end_span t ?(args = []) ?ts_us name =
  if t.tr_enabled then begin
    let ds = dstate t in
    if List.exists (fun s -> s.sp_name = name) ds.ds_stack then begin
      let ts = match ts_us with Some ts -> ts | None -> now_us t in
      let rec pop = function
        | [] -> []
        | sp :: rest ->
            sp.sp_end_us <- ts;
            if sp.sp_name = name then begin
              sp.sp_args <- sp.sp_args @ args;
              rest
            end
            else pop rest (* close abandoned children at the same instant *)
      in
      ds.ds_stack <- pop ds.ds_stack
    end
  end

let with_span t ?cat ?args name f =
  if not t.tr_enabled then f ()
  else begin
    begin_span t ?cat ?args name;
    Fun.protect ~finally:(fun () -> end_span t name) f
  end

let complete t ?(cat = "") ?(args = []) ?ts_us ~dur_us name =
  if t.tr_enabled then begin
    let ds = dstate t in
    let ts = match ts_us with Some ts -> ts | None -> now_us t in
    ignore (push t ds ~cat ~args ~begin_us:ts ~end_us:(ts +. dur_us) name)
  end

let current_span_id t =
  if not t.tr_enabled then -1
  else
    match (dstate t).ds_stack with [] -> -1 | sp :: _ -> sp.sp_id

(* ------------------------------------------------------------------ *)
(* Cross-process span hand-off                                         *)
(* ------------------------------------------------------------------ *)

(* [collect] brackets [f] with an id watermark: anything this domain
   recorded with an id at or past the mark was begun during [f].  The
   walk starts from the new buffer head and stops at the pre-[f] head —
   O(spans recorded during [f]), not O(buffer) — with the id guard
   covering the case where the retention ring rebuilt the list (physical
   equality alone would not terminate early then). *)
let collect t f =
  let ds = dstate t in
  let mark = Atomic.get t.tr_next_id in
  let old_head = ds.ds_spans in
  let r = f () in
  let rec take acc l =
    if l == old_head then acc
    else
      match l with
      | [] -> acc
      | sp :: rest -> if sp.sp_id >= mark then take (sp :: acc) rest else acc
  in
  (r, List.sort (fun a b -> compare a.sp_id b.sp_id) (take [] ds.ds_spans))

let graft t ?at_us ~parent spans =
  if (not t.tr_enabled) || spans = [] then 0
  else begin
    let ds = dstate t in
    let base = match at_us with Some v -> v | None -> now_us t in
    (* Remote span ids live in the remote process's id space: remint every
       id locally, rewire parents through the map, and hang remote roots
       (or spans with dangling parents) off [parent]. *)
    let map = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        Hashtbl.replace map sp.sp_id (Atomic.fetch_and_add t.tr_next_id 1))
      spans;
    let max_end = ref base in
    let grafted =
      List.map
        (fun sp ->
          let id = Hashtbl.find map sp.sp_id in
          let p =
            match Hashtbl.find_opt map sp.sp_parent with
            | Some p -> p
            | None -> parent
          in
          let b = Float.max 0.0 sp.sp_begin_us in
          let e = if sp.sp_end_us < b then b else sp.sp_end_us in
          let sp' =
            {
              sp with
              sp_id = id;
              sp_parent = p;
              sp_begin_us = base +. b;
              sp_end_us = base +. e;
            }
          in
          if sp'.sp_end_us > !max_end then max_end := sp'.sp_end_us;
          sp')
        spans
    in
    List.iter
      (fun sp ->
        ds.ds_spans <- sp :: ds.ds_spans;
        ds.ds_count <- ds.ds_count + 1)
      grafted;
    enforce_limit t ds;
    advance_to t !max_end;
    List.length grafted
  end

(* Merge the per-domain buffers into the one timeline.  Ids are allocated
   from a single atomic counter at begin time, so ascending id order *is*
   global begin order. *)
let spans t =
  Mutex.lock t.tr_mu;
  let all =
    List.concat_map (fun ds -> ds.ds_spans) !(t.tr_states)
  in
  Mutex.unlock t.tr_mu;
  List.sort (fun a b -> compare a.sp_id b.sp_id) all

let open_depth t =
  Mutex.lock t.tr_mu;
  let n =
    List.fold_left (fun acc ds -> acc + List.length ds.ds_stack) 0 !(t.tr_states)
  in
  Mutex.unlock t.tr_mu;
  n

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let to_chrome_json t =
  let now = now_us t in
  let closed_end sp = if sp.sp_end_us < 0.0 then now else sp.sp_end_us in
  let sorted =
    List.sort
      (fun a b -> compare (a.sp_begin_us, a.sp_id) (b.sp_begin_us, b.sp_id))
      (spans t)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"traceId\":\"%s\"},\
        \"traceEvents\":["
       (Json.escape (trace_id t)));
  Buffer.add_string b
    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
     \"args\":{\"name\":\"lime\"}}";
  List.iter
    (fun sp ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\
            \"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f"
           (Json.escape sp.sp_name)
           (Json.escape (if sp.sp_cat = "" then "default" else sp.sp_cat))
           sp.sp_begin_us
           (closed_end sp -. sp.sp_begin_us));
      if sp.sp_args <> [] then begin
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
          sp.sp_args;
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}')
    sorted;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_chrome t file =
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (to_chrome_json t))

(* ------------------------------------------------------------------ *)
(* Terminal views                                                      *)
(* ------------------------------------------------------------------ *)

let duration_us ~now sp =
  (if sp.sp_end_us < 0.0 then now else sp.sp_end_us) -. sp.sp_begin_us

let pretty_us us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.2fms" (us /. 1e3)
  else Printf.sprintf "%.2fus" us

let summary ?(top = 10) t =
  let now = now_us t in
  let all = spans t in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let dur, n =
        Option.value (Hashtbl.find_opt tbl sp.sp_name) ~default:(0.0, 0)
      in
      Hashtbl.replace tbl sp.sp_name (dur +. duration_us ~now sp, n + 1))
    all;
  let timeline =
    List.fold_left (fun acc sp -> Float.max acc
        (if sp.sp_end_us < 0.0 then now else sp.sp_end_us))
      0.0 all
  in
  let rows =
    Hashtbl.fold (fun name (dur, n) acc -> (name, dur, n) :: acc) tbl []
    |> List.sort (fun (an, a, _) (bn, b, _) -> compare (b, an) (a, bn))
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "top spans by inclusive time (%d distinct, timeline %s):\n"
       (List.length rows) (pretty_us timeline));
  Buffer.add_string b
    (Printf.sprintf "  %10s %6s %6s  %s\n" "inclusive" "share" "count" "span");
  List.iteri
    (fun i (name, dur, n) ->
      if i < top then
        Buffer.add_string b
          (Printf.sprintf "  %10s %5.1f%% %6d  %s\n" (pretty_us dur)
             (if timeline <= 0.0 then 0.0 else 100.0 *. dur /. timeline)
             n name))
    rows;
  Buffer.contents b

let flame t =
  let now = now_us t in
  let all = spans t in
  let b = Buffer.create 512 in
  let rec walk depth parent =
    List.iter
      (fun sp ->
        if sp.sp_parent = parent then begin
          Buffer.add_string b
            (Printf.sprintf "%s%s %s[%s]\n"
               (String.make (2 * depth) ' ')
               sp.sp_name
               (pretty_us (duration_us ~now sp) ^ " ")
               (if sp.sp_cat = "" then "default" else sp.sp_cat));
          walk (depth + 1) sp.sp_id
        end)
      all
  in
  walk 0 (-1);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let leg_order ph =
  [
    ("java_marshal", ph.Comm.java_marshal_s);
    ("jni", ph.Comm.jni_s);
    ("c_marshal", ph.Comm.c_marshal_s);
    ("setup", ph.Comm.setup_s);
    ("pcie", ph.Comm.pcie_s);
    ("kernel", ph.Comm.kernel_s);
    ("host", ph.Comm.host_s);
  ]

(** One task firing as a model-time span tree: the firing span covers the
    modelled total, each {!Comm.phases} leg is a child laid out
    sequentially in Fig 6 order, and the kernel leg of a device firing
    carries the launch attributes from the device model. *)
let emit_firing tracer (fi : Engine.firing_info) =
  if tracer.tr_enabled then begin
    let total_us = Comm.total fi.fi_phases *. 1e6 in
    let t0 = now_us tracer in
    begin_span tracer ~cat:"firing" ~ts_us:t0
      ~args:
        ([
           ("task", fi.fi_task);
           ("device", if fi.fi_device then "true" else "false");
         ]
        @
        (* which device, so multi-device runs attribute firings per device *)
        match fi.fi_dev with
        | Some d -> [ ("dev", d.Gpusim.Device.name) ]
        | None -> [])
      ("firing." ^ fi.fi_task);
    let off = ref t0 in
    List.iter
      (fun (leg, seconds) ->
        let dur_us = seconds *. 1e6 in
        let args =
          match (leg, fi.fi_dev, fi.fi_profile, fi.fi_breakdown) with
          | "kernel", Some d, Some prof, Some bd ->
              Gpusim.Model.launch_attrs d prof fi.fi_bindings
              @ [
                  ("compute_s", Printf.sprintf "%.3g" bd.Gpusim.Model.bd_compute_s);
                  ("global_s", Printf.sprintf "%.3g" bd.Gpusim.Model.bd_global_s);
                  ("local_s", Printf.sprintf "%.3g" bd.Gpusim.Model.bd_local_s);
                  ("constant_s", Printf.sprintf "%.3g" bd.Gpusim.Model.bd_constant_s);
                  ("image_s", Printf.sprintf "%.3g" bd.Gpusim.Model.bd_image_s);
                  ("launch_s", Printf.sprintf "%.3g" bd.Gpusim.Model.bd_launch_s);
                ]
              |> fun base ->
              (* counters ride along, minus keys launch_attrs already set *)
              base
              @ (match fi.fi_counters with
                | Some c ->
                    List.filter
                      (fun (k, _) -> not (List.mem_assoc k base))
                      (Gpusim.Counters.span_attrs c)
                | None -> [])
          | _ -> []
        in
        complete tracer ~cat:"comm" ~args ~ts_us:!off ~dur_us ("comm." ^ leg);
        off := !off +. dur_us)
      (leg_order fi.fi_phases);
    end_span tracer ~ts_us:(t0 +. total_us) ("firing." ^ fi.fi_task);
    advance_to tracer (t0 +. total_us)
  end

let install ?(tracer = default) () =
  Hooks.add Pipeline.phase_hooks ~key:"trace" (fun (phase, ev) ->
      match ev with
      | `Begin -> begin_span tracer ~cat:"compile" ("pipeline." ^ phase)
      | `End -> end_span tracer ("pipeline." ^ phase));
  Hooks.add Engine.firing_hooks ~key:"trace" (emit_firing tracer);
  (* <search>.* spans (rewrite, sched): a search brackets as one
     wall-clock span with an instant child per beam level; a replay of a
     stored choice is a single instant.  All carry their key facts as
     args. *)
  Hooks.add Beam.hooks ~key:"trace" (fun (search, ev) ->
      match ev with
      | Beam.Begin args ->
          begin_span tracer ~cat:search ~args (search ^ ".search")
      | Beam.Level args ->
          complete tracer ~cat:search ~dur_us:1.0 ~args (search ^ ".level")
      | Beam.End { evals; best_time_s; best; improved } ->
          end_span tracer
            ~args:
              [
                ("evals", string_of_int evals);
                ("best_time_s", Printf.sprintf "%.3e" best_time_s);
                best;
                ("improved", string_of_bool improved);
              ]
            (search ^ ".search")
      | Beam.Replay { args; ok } ->
          complete tracer ~cat:search ~dur_us:1.0
            ~args:(args @ [ ("ok", string_of_bool ok) ])
            (search ^ ".replay"))

let uninstall () =
  Hooks.remove Pipeline.phase_hooks "trace";
  Hooks.remove Engine.firing_hooks "trace";
  Hooks.remove Beam.hooks "trace"

let with_observers ?(tracer = default) f =
  let was = tracer.tr_enabled in
  tracer.tr_enabled <- true;
  install ~tracer ();
  Fun.protect
    ~finally:(fun () ->
      uninstall ();
      tracer.tr_enabled <- was)
    f
