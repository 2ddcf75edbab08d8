(** Counter/gauge/histogram registry — see the interface.

    Thread safety: the registry table is guarded by one mutex (registration
    is rare), and every metric carries its own mutex guarding its value(s),
    so two domains bumping different counters never contend and two domains
    bumping the same counter never lose an increment. *)

type counter = { c_name : string; mutable c_value : int; c_mu : Mutex.t }
type gauge = { g_name : string; mutable g_value : float; g_mu : Mutex.t }

type histogram = {
  h_name : string;
  h_bounds : float array;  (** ascending upper bounds, excluding +Inf *)
  h_counts : int array;  (** one per bound, plus the +Inf bucket at the end *)
  h_exemplars : (float * string) option array;
      (** per bucket, the latest exemplared observation: (value, trace id) *)
  mutable h_sum : float;
  mutable h_count : int;
  h_mu : Mutex.t;
}

type summary = {
  s_name : string;
  s_quantiles : float list;
  s_windows : (string * float) list;  (** label, span in seconds *)
  s_window : Sketch.window;  (** ring + all-time totals; self-locking *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Summary of summary

type registry = {
  tbl : (string, metric) Hashtbl.t;
  help : (string, string) Hashtbl.t;
  reg_mu : Mutex.t;
}

let create () =
  { tbl = Hashtbl.create 32; help = Hashtbl.create 32; reg_mu = Mutex.create () }

let default = create ()

let default_buckets = [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0 ]

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Label values escape backslash, double quote and newline, per the
   Prometheus text format. *)
let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The full sample name: [family{k="v",...}].  Static labels are part of
   a metric's identity — same family + different labels = distinct
   metrics sharing one HELP/TYPE block in the exposition. *)
let render_name name labels =
  match labels with
  | [] -> name
  | ls ->
      Printf.sprintf "%s{%s}" name
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              ls))

(* Family name (HELP/TYPE unit): the sample name up to the label braces. *)
let family_of name =
  match String.index_opt name '{' with
  | None -> name
  | Some i -> String.sub name 0 i

let register reg ?(help = "") name make =
  let family = family_of name in
  with_lock reg.reg_mu (fun () ->
      (match Hashtbl.find_opt reg.tbl name with
      | None ->
          Hashtbl.replace reg.tbl name (make ());
          if help <> "" && not (Hashtbl.mem reg.help family) then
            Hashtbl.replace reg.help family help
      | Some _ -> ());
      Hashtbl.find reg.tbl name)

let counter reg ?help ?(labels = []) name =
  let key = render_name name labels in
  match
    register reg ?help key (fun () ->
        Counter { c_name = key; c_value = 0; c_mu = Mutex.create () })
  with
  | Counter c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ key ^ " is not a counter")

let gauge reg ?help ?(labels = []) name =
  let key = render_name name labels in
  match
    register reg ?help key (fun () ->
        Gauge { g_name = key; g_value = 0.0; g_mu = Mutex.create () })
  with
  | Gauge g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ key ^ " is not a gauge")

let histogram reg ?help ?(buckets = default_buckets) name =
  let make () =
    let bounds = Array.of_list buckets in
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg ("Metrics.histogram: buckets not ascending: " ^ name))
      bounds;
    Histogram
      {
        h_name = name;
        h_bounds = bounds;
        h_counts = Array.make (Array.length bounds + 1) 0;
        h_exemplars = Array.make (Array.length bounds + 1) None;
        h_sum = 0.0;
        h_count = 0;
        h_mu = Mutex.create ();
      }
  in
  match register reg ?help name make with
  | Histogram h -> h
  | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

(* The default window geometry: a ring of 60 one-minute sub-sketches, so
   one summary serves 1m/5m/1h views of its stream at once. *)
let default_windows = [ ("1m", 60.0); ("5m", 300.0); ("1h", 3600.0) ]

let summary reg ?help ?(alpha = Sketch.default_alpha)
    ?(quantiles = [ 0.5; 0.9; 0.99 ]) ?(windows = default_windows)
    ?(clock = Lime_support.Clock.now_s) name =
  List.iter
    (fun q ->
      if q < 0.0 || q > 1.0 then
        invalid_arg ("Metrics.summary: quantile outside [0,1]: " ^ name))
    quantiles;
  let make () =
    Summary
      {
        s_name = name;
        s_quantiles = quantiles;
        s_windows = windows;
        s_window = Sketch.window ~alpha ~clock ();
      }
  in
  match register reg ?help name make with
  | Summary s -> s
  | _ -> invalid_arg ("Metrics.summary: " ^ name ^ " is not a summary")

let inc ?(by = 1) c = with_lock c.c_mu (fun () -> c.c_value <- c.c_value + by)
let counter_value c = with_lock c.c_mu (fun () -> c.c_value)
let set g v = with_lock g.g_mu (fun () -> g.g_value <- v)
let add g v = with_lock g.g_mu (fun () -> g.g_value <- g.g_value +. v)

let observe ?exemplar h v =
  with_lock h.h_mu (fun () ->
      let n = Array.length h.h_bounds in
      let rec bucket i =
        if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1)
      in
      let b = bucket 0 in
      h.h_counts.(b) <- h.h_counts.(b) + 1;
      (match exemplar with
      | Some trace_id when trace_id <> "" ->
          h.h_exemplars.(b) <- Some (v, trace_id)
      | _ -> ());
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

let observe_summary s v = Sketch.window_add s.s_window v
let summary_count s = Sketch.window_count s.s_window
let summary_sum s = Sketch.window_sum s.s_window

let summary_quantile s ?window_s q =
  match window_s with
  | None -> Sketch.quantile (Sketch.window_total s.s_window) q
  | Some span -> Sketch.window_quantile s.s_window span q

let histogram_count h = with_lock h.h_mu (fun () -> h.h_count)
let histogram_sum h = with_lock h.h_mu (fun () -> h.h_sum)

(* Escaping for HELP docstrings per the Prometheus text format: backslash
   and newline only. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %g keeps 1e-06-style bounds and integral counts compact and stable. *)
let expose reg =
  let buf = Buffer.create 1024 in
  (* snapshot the registrations under the lock; the per-metric reads below
     take each metric's own mutex *)
  let entries =
    with_lock reg.reg_mu (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            (name, Hashtbl.find_opt reg.help (family_of name), m) :: acc)
          reg.tbl []
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b))
  in
  let last_family = ref "" in
  List.iter
    (fun (name, help, metric) ->
      (* canonical exposition order: HELP, then TYPE, then the samples —
         and a HELP line for *every* metric, registered with ~help or not,
         so scrapers see a uniform metadata block.  Labeled samples of one
         family are adjacent after the sort and share one metadata
         block. *)
      let family = family_of name in
      let metadata kind =
        if family <> !last_family then begin
          last_family := family;
          (match help with
          | Some help when help <> "" ->
              Buffer.add_string buf
                (Printf.sprintf "# HELP %s %s\n" family (escape_help help))
          | _ -> Buffer.add_string buf (Printf.sprintf "# HELP %s\n" family));
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" family kind)
        end
      in
      match metric with
      | Counter c ->
          metadata "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" c.c_name (counter_value c))
      | Gauge g ->
          metadata "gauge";
          let v = with_lock g.g_mu (fun () -> g.g_value) in
          Buffer.add_string buf (Printf.sprintf "%s %g\n" g.g_name v)
      | Histogram h ->
          metadata "histogram";
          let counts, exemplars, sum, count =
            with_lock h.h_mu (fun () ->
                ( Array.copy h.h_counts,
                  Array.copy h.h_exemplars,
                  h.h_sum,
                  h.h_count ))
          in
          (* an OpenMetrics exemplar rides its bucket line:
             [.. # {trace_id="…"} value] — the join key from a scraped
             tail bucket to a concrete distributed trace *)
          let exemplar_suffix i =
            match exemplars.(i) with
            | None -> ""
            | Some (v, trace_id) ->
                Printf.sprintf " # {trace_id=\"%s\"} %g"
                  (escape_label_value trace_id)
                  v
          in
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%g\"} %d%s\n" name bound !cum
                   (exemplar_suffix i)))
            h.h_bounds;
          let last = Array.length h.h_bounds in
          cum := !cum + counts.(last);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d%s\n" name !cum
               (exemplar_suffix last));
          Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" name sum);
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name count)
      | Summary s ->
          metadata "summary";
          (* cumulative quantiles first, then one block per rolling
             window; empty sketches emit no quantile samples (rather
             than NaN), so a fresh registry still snapshots cleanly *)
          let quantile_lines labels sk =
            List.iter
              (fun q ->
                match Sketch.quantile sk q with
                | None -> ()
                | Some v ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s{%squantile=\"%g\"} %g\n" name
                         labels q v))
              s.s_quantiles
          in
          quantile_lines "" (Sketch.window_total s.s_window);
          List.iter
            (fun (label, span) ->
              quantile_lines
                (Printf.sprintf "window=\"%s\"," (escape_label_value label))
                (Sketch.window_sketch s.s_window span))
            s.s_windows;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %g\n" name (summary_sum s));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" name (summary_count s)))
    entries;
  Buffer.contents buf

let reset reg =
  let metrics =
    with_lock reg.reg_mu (fun () ->
        Hashtbl.fold (fun _ m acc -> m :: acc) reg.tbl [])
  in
  List.iter
    (fun m ->
      match m with
      | Counter c -> with_lock c.c_mu (fun () -> c.c_value <- 0)
      | Gauge g -> with_lock g.g_mu (fun () -> g.g_value <- 0.0)
      | Histogram h ->
          with_lock h.h_mu (fun () ->
              Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
              Array.fill h.h_exemplars 0 (Array.length h.h_exemplars) None;
              h.h_sum <- 0.0;
              h.h_count <- 0)
      | Summary s -> Sketch.window_clear s.s_window)
    metrics
