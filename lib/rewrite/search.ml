(** Beam search over the rewrite catalog.

    The search explores sequences of {!Rewrite.step}s from
    {!Rewrite.catalog}, scoring each resulting [(kernel, config)] state
    with the analytic device model (the launch pricer
    {!Gpusim.Autotune.launch} with invariant hoisting and affine-lane
    recognition enabled).  A beam of the [width] best states advances up
    to [depth] levels; children are produced by every applicable, legal
    catalog step and deduplicated structurally, so permutations of
    commuting placements cost one evaluation, not many.

    The initial population is the empty schedule plus the eight canned
    Fig 8 sequences of {!Rewrite.fig8_sequences}.  Seeding guarantees the
    returned best is never worse under the cost model than the best Fig 8
    configuration — beam search only ever improves on the paper's sweep.

    Everything is deterministic: the catalog order is fixed, candidates
    sort by (modeled time, sequence length, sequence names), and no
    randomness enters anywhere, so a stored winning sequence replays to
    the same state on a cache-warm compile. *)

module Ir = Lime_ir.Ir
module Kernel = Lime_gpu.Kernel
module Memopt = Lime_gpu.Memopt
module Device = Gpusim.Device
module Model = Gpusim.Model
module Counters = Gpusim.Counters
module Autotune = Gpusim.Autotune

type candidate = {
  sc_sequence : string list;  (** rewrite names, in application order *)
  sc_state : Rewrite.state;
  sc_time_s : float;  (** modeled kernel time on the search device *)
  sc_breakdown : Model.breakdown;
  sc_counters : Counters.t;
}

type outcome = {
  so_best : candidate;
  so_baseline : candidate;  (** the empty schedule *)
  so_fig8_best : string * candidate;  (** best canned Fig 8 sequence *)
  so_evals : int;  (** cost-model evaluations spent *)
  so_depth_reached : int;  (** beam levels actually expanded *)
}

(* ------------------------------------------------------------------ *)
(* Observers (keyed, composing — same discipline as Pipeline)          *)
(* ------------------------------------------------------------------ *)

type event =
  | EBegin of { kernel : string; device : string; width : int; depth : int }
  | ELevel of {
      level : int;
      frontier : int;  (** beam size after pruning *)
      evals : int;  (** cumulative evaluations *)
      best_time_s : float;
      best_sequence : string list;
    }
  | EEnd of {
      evals : int;
      best_time_s : float;
      best_sequence : string list;
      improved : bool;  (** beam beat the best Fig 8 configuration *)
    }
  | EReplay of {
      kernel : string;
      sequence : string list;
      ok : bool;  (** the stored schedule replayed legally *)
    }

(** Search observers: the [lime.service] metrics layer uses key
    ["metrics"], the tracer ["trace"]. *)
let hooks : event Lime_support.Hooks.t = Lime_support.Hooks.create ()

let emit ev = Lime_support.Hooks.emit hooks ev

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)
(* ------------------------------------------------------------------ *)

(** The memory optimizer's placements for a state, with affine-lane
    recognition on.  The search computes them once per state and hands
    them to both {!signature} and {!score}. *)
let decisions (st : Rewrite.state) : Memopt.decision list =
  Memopt.optimize ~affine_lanes:true st.Rewrite.st_config st.Rewrite.st_kernel

(** Modeled time of one rewrite state under its [decisions]: profile the
    (possibly restructured) kernel with the backend-compiler effects the
    rewrites rely on (invariant hoisting, affine lanes) and price it on
    the device. *)
let score (device : Device.t) (st : Rewrite.state)
    (decisions : Memopt.decision list) ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : float * Model.breakdown * Counters.t
    =
  let prof, bindings =
    Autotune.launch ~hoist_invariant:true ~affine_lanes:true
      st.Rewrite.st_kernel decisions ~shapes ~scalars
  in
  let bd, ctr = Model.kernel_time_ex device prof bindings in
  (bd.Model.bd_total_s, bd, ctr)

(** Structural signature of a state: the rewritten body plus the placement
    table it induces.  Two states with equal signatures are
    indistinguishable to the cost model, so the search keeps only the
    first (shortest, earliest) sequence reaching each. *)
let signature (st : Rewrite.state) (decisions : Memopt.decision list) :
    string =
  let body =
    String.concat "\n"
      (List.map (Ir.stmt_str ~ind:0) st.Rewrite.st_kernel.Kernel.k_body)
  in
  Digest.string (body ^ "\x00" ^ Memopt.describe decisions)

let cmp_candidate (a : candidate) (b : candidate) : int =
  compare
    (a.sc_time_s, List.length a.sc_sequence, a.sc_sequence)
    (b.sc_time_s, List.length b.sc_sequence, b.sc_sequence)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let default_width = 8
let default_depth = 5

(** [search device k ~shapes ~scalars] beam-searches a rewrite schedule
    for [k] launched with the given argument shapes.  [width] states
    survive each level; at most [depth] rewrites are chained. *)
let search ?(width = default_width) ?(depth = default_depth)
    (device : Device.t) (k : Kernel.kernel)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : outcome =
  let width = max 1 width and depth = max 0 depth in
  emit
    (EBegin
       { kernel = k.Kernel.k_name; device = device.Device.name; width;
         depth });
  let evals = ref 0 in
  let evaluate (sequence : string list) (st : Rewrite.state) ds : candidate =
    incr evals;
    let time_s, bd, ctr = score device st ds ~shapes ~scalars in
    {
      sc_sequence = sequence;
      sc_state = st;
      sc_time_s = time_s;
      sc_breakdown = bd;
      sc_counters = ctr;
    }
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let fresh_state st ds =
    let s = signature st ds in
    if Hashtbl.mem seen s then false
    else begin
      Hashtbl.add seen s ();
      true
    end
  in
  let baseline_state = Rewrite.initial k in
  let baseline_ds = decisions baseline_state in
  ignore (fresh_state baseline_state baseline_ds);
  let baseline = evaluate [] baseline_state baseline_ds in
  (* Canned Fig 8 sequences seed the beam: the search result can only be
     at least as good as the paper's sweep winner. *)
  let fig8 =
    List.filter_map
      (fun (name, seq) ->
        match Rewrite.apply_sequence baseline_state seq with
        | Error _ -> None
        | Ok st -> Some (name, seq, st))
      Rewrite.fig8_sequences
  in
  let fig8_cands =
    List.map
      (fun (name, seq, st) ->
        if seq = [] then (name, baseline)
        else begin
          let ds = decisions st in
          ignore (fresh_state st ds);
          (name, evaluate seq st ds)
        end)
      fig8
  in
  let fig8_cands =
    match fig8_cands with [] -> [ ("Global", baseline) ] | l -> l
  in
  let fig8_best =
    List.fold_left
      (fun acc (name, c) ->
        match acc with
        | Some (_, best) when cmp_candidate best c <= 0 -> acc
        | _ -> Some (name, c))
      None fig8_cands
    |> Option.get
  in
  let best_ever = ref baseline in
  let consider c = if cmp_candidate c !best_ever < 0 then best_ever := c in
  List.iter (fun (_, c) -> consider c) fig8_cands;
  let prune cands =
    let sorted = List.sort cmp_candidate cands in
    List.filteri (fun i _ -> i < width) sorted
  in
  let frontier = ref (prune (baseline :: List.map snd fig8_cands)) in
  let depth_reached = ref 0 in
  (try
     for level = 1 to depth do
       let children =
         List.concat_map
           (fun (c : candidate) ->
             List.filter_map
               (fun (step : Rewrite.step) ->
                 if not (step.Rewrite.applicable c.sc_state) then None
                 else
                   match step.Rewrite.legality_check c.sc_state with
                   | Error _ -> None
                   | Ok () -> (
                       match step.Rewrite.apply c.sc_state with
                       | exception Rewrite.Illegal _ -> None
                       | st ->
                           let ds = decisions st in
                           if fresh_state st ds then
                             Some
                               (evaluate
                                  (c.sc_sequence @ [ step.Rewrite.name ])
                                  st ds)
                           else None))
               Rewrite.catalog)
           !frontier
       in
       if children = [] then raise Exit;
       depth_reached := level;
       List.iter consider children;
       frontier := prune children;
       emit
         (ELevel
            {
              level;
              frontier = List.length !frontier;
              evals = !evals;
              best_time_s = !best_ever.sc_time_s;
              best_sequence = !best_ever.sc_sequence;
            })
     done
   with Exit -> ());
  let best = !best_ever in
  emit
    (EEnd
       {
         evals = !evals;
         best_time_s = best.sc_time_s;
         best_sequence = best.sc_sequence;
         improved = best.sc_time_s < (snd fig8_best).sc_time_s;
       });
  {
    so_best = best;
    so_baseline = baseline;
    so_fig8_best = fig8_best;
    so_evals = !evals;
    so_depth_reached = !depth_reached;
  }

(* ------------------------------------------------------------------ *)
(* Replay and reporting                                                *)
(* ------------------------------------------------------------------ *)

(** Apply a stored schedule (legality-checked, no search) and price the
    result — the cache-warm path: a tunestore hit replays the persisted
    sequence instead of re-searching. *)
let replay (device : Device.t) (k : Kernel.kernel) (sequence : string list)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : (candidate, string) result =
  match Rewrite.apply_sequence (Rewrite.initial k) sequence with
  | Error m ->
      emit (EReplay { kernel = k.Kernel.k_name; sequence; ok = false });
      Error m
  | Ok st ->
      emit (EReplay { kernel = k.Kernel.k_name; sequence; ok = true });
      let time_s, bd, ctr = score device st (decisions st) ~shapes ~scalars in
      Ok
        {
          sc_sequence = sequence;
          sc_state = st;
          sc_time_s = time_s;
          sc_breakdown = bd;
          sc_counters = ctr;
        }

let seq_str = function
  | [] -> "(baseline)"
  | seq -> Rewrite.sequence_to_string seq

(** Human-readable account of a search, for [limec --explain]. *)
let explain (o : outcome) : string =
  let b = Buffer.create 256 in
  let f8_name, f8 = o.so_fig8_best in
  Buffer.add_string b
    (Printf.sprintf "baseline           %.3e s  %s\n" o.so_baseline.sc_time_s
       (seq_str o.so_baseline.sc_sequence));
  Buffer.add_string b
    (Printf.sprintf "best fig8          %.3e s  %s  [%s]\n" f8.sc_time_s
       (seq_str f8.sc_sequence) f8_name);
  Buffer.add_string b
    (Printf.sprintf "beam best          %.3e s  %s\n" o.so_best.sc_time_s
       (seq_str o.so_best.sc_sequence));
  Buffer.add_string b
    (Printf.sprintf "speedup vs baseline %.2fx, vs best fig8 %.2fx\n"
       (o.so_baseline.sc_time_s /. o.so_best.sc_time_s)
       (f8.sc_time_s /. o.so_best.sc_time_s));
  Buffer.add_string b
    (Printf.sprintf "%d cost-model evaluations, %d beam levels\n" o.so_evals
       o.so_depth_reached);
  Buffer.contents b
