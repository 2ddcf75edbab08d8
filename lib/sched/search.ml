(** Placement search: choose a device (or the host) for every stage.

    Non-offloadable stages are pinned to the host; each offloadable stage
    can go to the host or any of the four simulated devices.  With at most
    four placeable stages the space is ≤ 5⁴ = 625 candidates and the
    search is exhaustive; above that a beam advances stage by stage,
    scoring each prefix with the undecided suffix on the host and keeping
    the [width] best — the same discipline as the rewrite engine's beam
    ({!Lime_rewrite.Search}).

    The all-on-one-device placements (and all-host) are always evaluated
    and seed the beam, so the chosen placement is never worse under the
    cost model than the best single device — multi-device search only ever
    improves on the engine's legacy mode.

    Everything is deterministic: candidates order by (modeled time, spec)
    and no randomness enters, so a stored placement replays byte-identically
    on a warm run. *)

module Device = Gpusim.Device
module Marshal_ = Lime_runtime.Marshal

type candidate = {
  pc_placement : Placement.t;
  pc_time_s : float;  (** modeled makespan of the probed firings *)
  pc_breakdown : Cost.breakdown;
}

type outcome = {
  po_best : candidate;
  po_singles : (string * candidate) list;
      (** the all-host and all-on-one-device baselines, by name *)
  po_best_single : string * candidate;
  po_evals : int;  (** cost-model evaluations spent *)
  po_exhaustive : bool;  (** exhaustive enumeration vs beam *)
  po_firings : int;
}

(* ------------------------------------------------------------------ *)
(* Observers (keyed, composing — same discipline as the rewrite search) *)
(* ------------------------------------------------------------------ *)

type event =
  | SBegin of {
      stages : int;
      placeable : int;
      firings : int;
      exhaustive : bool;
    }
  | SEnd of {
      evals : int;
      best_time_s : float;
      best_spec : string;
      improved : bool;  (** beat the best single-device placement *)
    }
  | SReplay of {
      spec : string;
      ok : bool;  (** the stored placement still fits the pipeline *)
    }

(** Search observers: the [lime.service] metrics layer uses key
    ["metrics"], the tracer ["trace"]. *)
let hooks : event Lime_support.Hooks.t = Lime_support.Hooks.create ()

let emit ev = Lime_support.Hooks.emit hooks ev

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let default_width = 8
let exhaustive_placeable_limit = 4

let spec_of (tb : Cost.table) (assigns : Placement.assignment array) :
    Placement.t =
  Array.to_list
    (Array.mapi
       (fun k st -> (st.Probe.st_task, assigns.(k)))
       tb.Cost.tb_stages)

let cmp_candidate (a : candidate) (b : candidate) : int =
  compare
    (a.pc_time_s, Placement.to_spec a.pc_placement)
    (b.pc_time_s, Placement.to_spec b.pc_placement)

let evaluate_with (tb : Cost.table) ~serializer ~firings
    (evals : int ref) (assigns : Placement.assignment array) : candidate =
  incr evals;
  let time_s, bd = Cost.price ~serializer ~firings tb assigns in
  { pc_placement = spec_of tb assigns; pc_time_s = time_s; pc_breakdown = bd }

let uniform_assigns (tb : Cost.table) (a : Placement.assignment) :
    Placement.assignment array =
  Array.init (Array.length tb.Cost.tb_stages) (fun k ->
      if tb.Cost.tb_stages.(k).Probe.st_offloadable then a else Placement.Host)

let best_of (singles : (string * candidate) list) : string * candidate =
  List.fold_left
    (fun acc (name, c) ->
      match acc with
      | Some (_, b) when cmp_candidate b c <= 0 -> acc
      | _ -> Some (name, c))
    None singles
  |> Option.get

(** The legacy baselines, priced: all offloadable stages on one device
    (the engine's [config.device] mode) for each device, plus everything
    on the host.  Returns the scored list and the best of them.  Used by
    both the search (as its seed) and warm tunestore replays (so a
    replayed placement prints the same scored table a cold search
    does). *)
let singles ?(serializer = Marshal_.Custom) ~(firings : int)
    (stages : Probe.stage list) :
    (string * candidate) list * (string * candidate) =
  let tb = Cost.table stages in
  let evals = ref 0 in
  let evaluate = evaluate_with tb ~serializer ~firings evals in
  let s =
    ("host", evaluate (uniform_assigns tb Placement.Host))
    :: List.map
         (fun (name, d) ->
           (name, evaluate (uniform_assigns tb (Placement.On d))))
         Placement.devices
  in
  (s, best_of s)

let search ?(width = default_width) ?(serializer = Marshal_.Custom)
    ~(firings : int) (stages : Probe.stage list) : outcome =
  let tb = Cost.table stages in
  let n = Array.length tb.Cost.tb_stages in
  let placeable =
    Array.fold_left
      (fun acc st -> if st.Probe.st_offloadable then acc + 1 else acc)
      0 tb.Cost.tb_stages
  in
  let exhaustive = placeable <= exhaustive_placeable_limit in
  emit (SBegin { stages = n; placeable; firings; exhaustive });
  let evals = ref 0 in
  let evaluate = evaluate_with tb ~serializer ~firings evals in
  let options k =
    if tb.Cost.tb_stages.(k).Probe.st_offloadable then
      Placement.Host :: List.map (fun (_, d) -> Placement.On d) Placement.devices
    else [ Placement.Host ]
  in
  let uniform = uniform_assigns tb in
  (* the legacy single-device baselines: all offloadable stages on one
     device (the engine's config.device mode), plus everything on the
     host *)
  let singles =
    ("host", evaluate (uniform Placement.Host))
    :: List.map
         (fun (name, d) -> (name, evaluate (uniform (Placement.On d))))
         Placement.devices
  in
  let best_single = best_of singles in
  let best_ever = ref (snd best_single) in
  let consider c = if cmp_candidate c !best_ever < 0 then best_ever := c in
  if exhaustive then begin
    (* depth-first product of per-stage options; singles were already
       evaluated but re-pricing them is cheap and keeps the loop simple *)
    let assigns = Array.make n Placement.Host in
    let rec go k =
      if k = n then consider (evaluate (Array.copy assigns))
      else
        List.iter
          (fun a ->
            assigns.(k) <- a;
            go (k + 1))
          (options k)
    in
    go 0
  end
  else begin
    (* beam: decide stages left to right; a prefix is scored as a full
       placement with the undecided suffix on the host.  Seeded with the
       single-device baselines so the result can only improve on them. *)
    let width = max 1 width in
    let prune cands =
      List.filteri (fun i _ -> i < width) (List.sort cmp_candidate cands)
    in
    let seed =
      List.map
        (fun (_, c) ->
          Array.of_list (List.map snd c.pc_placement))
        singles
    in
    let frontier = ref (List.map (fun a -> (a, evaluate a)) seed) in
    for k = 0 to n - 1 do
      if tb.Cost.tb_stages.(k).Probe.st_offloadable then begin
        let children =
          List.concat_map
            (fun (assigns, _) ->
              List.map
                (fun a ->
                  let c = Array.copy assigns in
                  c.(k) <- a;
                  (c, evaluate c))
                (options k))
            !frontier
        in
        List.iter (fun (_, c) -> consider c) children;
        let pruned =
          prune (List.map snd children)
          |> List.map (fun c ->
                 (Array.of_list (List.map snd c.pc_placement), c))
        in
        frontier := pruned
      end
    done;
    List.iter (fun (_, c) -> consider c) !frontier
  end;
  let best = !best_ever in
  emit
    (SEnd
       {
         evals = !evals;
         best_time_s = best.pc_time_s;
         best_spec = Placement.to_spec best.pc_placement;
         improved = best.pc_time_s < (snd best_single).pc_time_s;
       });
  {
    po_best = best;
    po_singles = singles;
    po_best_single = best_single;
    po_evals = !evals;
    po_exhaustive = exhaustive;
    po_firings = firings;
  }

(* ------------------------------------------------------------------ *)
(* Replay and validation                                               *)
(* ------------------------------------------------------------------ *)

(** Validate a placement (stored or user-specified) against a probed
    pipeline and price it: every placed task must exist, only offloadable
    tasks may leave the host, and unmentioned tasks stay on the host.
    Returns the completed (all-stages) placement as a candidate. *)
let replay ?(serializer = Marshal_.Custom) ~(firings : int)
    (stages : Probe.stage list) (p : Placement.t) :
    (candidate, string) result =
  let tb = Cost.table stages in
  let fail msg =
    emit (SReplay { spec = Placement.to_spec p; ok = false });
    Error msg
  in
  let tasks = List.map (fun st -> st.Probe.st_task) stages in
  match
    List.find_opt (fun (task, _) -> not (List.mem task tasks)) p
  with
  | Some (task, _) ->
      fail
        (Printf.sprintf "unknown task %s (pipeline: %s)" task
           (String.concat ", " tasks))
  | None -> (
      match
        List.find_opt
          (fun st ->
            (not st.Probe.st_offloadable)
            && match List.assoc_opt st.Probe.st_task p with
               | Some (Placement.On _) -> true
               | _ -> false)
          stages
      with
      | Some st ->
          fail
            (Printf.sprintf "task %s is not offloadable (host only)"
               st.Probe.st_task)
      | None ->
          let assigns =
            Array.of_list
              (List.map
                 (fun st ->
                   Option.value
                     (List.assoc_opt st.Probe.st_task p)
                     ~default:Placement.Host)
                 stages)
          in
          emit (SReplay { spec = Placement.to_spec p; ok = true });
          let time_s, bd = Cost.price ~serializer ~firings tb assigns in
          Ok
            {
              pc_placement = spec_of tb assigns;
              pc_time_s = time_s;
              pc_breakdown = bd;
            })

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** The scored placement table shared by cold searches and warm replays:
    the single-device baselines, the chosen placement with its resource
    breakdown, and the speedup over the best single device.  Provenance
    (searched vs replayed) is the caller's header line, so cold and warm
    runs print byte-identical tables. *)
let explain_table ~(singles : (string * candidate) list)
    ~(best_single : string * candidate) (best : candidate) : string =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, c) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %.3e s\n" name c.pc_time_s))
    singles;
  let bd = best.pc_breakdown in
  Buffer.add_string b
    (Printf.sprintf "  %-12s %.3e s  %s\n" "best" best.pc_time_s
       (Placement.to_spec best.pc_placement));
  Buffer.add_string b
    (Printf.sprintf
       "  period %.3e s (bottleneck %s), fill %.3e s, transfers %.3e s\n"
       bd.Cost.cb_period_s bd.Cost.cb_bottleneck bd.Cost.cb_fill_s
       bd.Cost.cb_transfer_s);
  List.iter
    (fun (r, s) ->
      Buffer.add_string b (Printf.sprintf "    %-24s %.3e s/firing\n" r s))
    bd.Cost.cb_occupancy;
  let sname, single = best_single in
  Buffer.add_string b
    (Printf.sprintf "speedup vs best single device (%s): %.2fx\n" sname
       (single.pc_time_s /. best.pc_time_s));
  Buffer.contents b

(** Human-readable scored placement table, for [limec --explain]. *)
let explain (o : outcome) : string =
  Printf.sprintf
    "placement search: %d candidates scored over %d firings (%s)\n%s"
    o.po_evals o.po_firings
    (if o.po_exhaustive then "exhaustive" else "beam")
    (explain_table ~singles:o.po_singles ~best_single:o.po_best_single
       o.po_best)
