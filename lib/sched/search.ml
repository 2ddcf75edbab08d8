(** Placement search: choose a device (or the host) for every stage.

    Non-offloadable stages are pinned to the host; each offloadable stage
    can go to the host or any of the four simulated devices.  With at most
    four placeable stages the space is ≤ 5⁴ = 625 candidates and the
    search is exhaustive; above that a beam advances stage by stage,
    scoring each prefix with the undecided suffix on the host and keeping
    the [default_width] best.  The beam is {!Lime_support.Beam.run}, the
    loop the rewrite engine's beam ({!Lime_rewrite.Search}) shares, and
    both report through {!Lime_support.Beam.hooks} (as ["sched"]).

    The all-on-one-device placements (and all-host) are always evaluated
    and seed the beam, so the chosen placement is never worse under the
    cost model than the best single device.

    Everything is deterministic: candidates order by (modeled time, spec)
    and no randomness enters, so a stored placement replays byte-identically
    on a warm run. *)

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

module Beam = Lime_support.Beam

let emit = Beam.emit "sched"
let placement_arg p = ("placement", Placement.to_spec p)

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

let evaluate_with (tb : Cost.table) ~firings (evals : int ref)
    (assigns : Placement.assignment array) : candidate =
  incr evals;
  let time_s, bd = Cost.price ~firings tb assigns in
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

(* [singles] over an already built table, charging [evaluate]'s counter *)
let priced_singles (tb : Cost.table)
    (evaluate : Placement.assignment array -> candidate) :
    (string * candidate) list * (string * candidate) =
  let s =
    ("host", evaluate (uniform_assigns tb Placement.Host))
    :: List.map
         (fun (name, d) ->
           (name, evaluate (uniform_assigns tb (Placement.On d))))
         Placement.devices
  in
  (s, best_of s)

let singles ~(firings : int) (stages : Probe.stage list) :
    (string * candidate) list * (string * candidate) =
  let tb = Cost.table stages in
  priced_singles tb (evaluate_with tb ~firings (ref 0))

let search ~(firings : int) (stages : Probe.stage list) : outcome =
  let tb = Cost.table stages in
  let n = Array.length tb.Cost.tb_stages in
  (* indices of the offloadable stages, in pipeline order *)
  let placeable_at =
    List.filter
      (fun k -> tb.Cost.tb_stages.(k).Probe.st_offloadable)
      (List.init n Fun.id)
    |> Array.of_list
  in
  let placeable = Array.length placeable_at in
  let exhaustive = placeable <= exhaustive_placeable_limit in
  emit
    (Beam.Begin
       [
         ("stages", string_of_int n);
         ("placeable", string_of_int placeable);
         ("firings", string_of_int firings);
         ("exhaustive", string_of_bool exhaustive);
       ]);
  let evals = ref 0 in
  let evaluate = evaluate_with tb ~firings evals in
  let options k =
    if tb.Cost.tb_stages.(k).Probe.st_offloadable then
      Placement.Host :: List.map (fun (_, d) -> Placement.On d) Placement.devices
    else [ Placement.Host ]
  in
  let singles, best_single = priced_singles tb evaluate in
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
    (* beam: level l decides the l-th placeable stage; a prefix is scored
       as a full placement with the undecided suffix on the host.  Seeded
       with the single-device baselines so the result can only improve on
       them. *)
    let assigns c = Array.of_list (List.map snd c.pc_placement) in
    let expand level c =
      let k = placeable_at.(level - 1) in
      List.map
        (fun a ->
          let child = assigns c in
          child.(k) <- a;
          evaluate child)
        (options k)
    in
    best_ever :=
      fst
        (Beam.run ~cmp:cmp_candidate ~width:default_width ~levels:placeable
           ~expand ~best:!best_ever
           (List.map snd singles))
  end;
  let best = !best_ever in
  emit
    (Beam.End
       {
         evals = !evals;
         best_time_s = best.pc_time_s;
         best = placement_arg best.pc_placement;
         improved = best.pc_time_s < (snd best_single).pc_time_s;
         args = [];
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

let replay ~(firings : int) (stages : Probe.stage list) (p : Placement.t) :
    (candidate, string) result =
  let tb = Cost.table stages in
  let replayed ok = emit (Beam.Replay { args = [ placement_arg p ]; ok }) in
  let fail msg =
    replayed false;
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
          replayed true;
          let time_s, bd = Cost.price ~firings tb assigns in
          Ok
            {
              pc_placement = spec_of tb assigns;
              pc_time_s = time_s;
              pc_breakdown = bd;
            })

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

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

let explain (o : outcome) : string =
  Printf.sprintf
    "placement search: %d candidates scored over %d firings (%s)\n%s"
    o.po_evals o.po_firings
    (if o.po_exhaustive then "exhaustive" else "beam")
    (explain_table ~singles:o.po_singles ~best_single:o.po_best_single
       o.po_best)
