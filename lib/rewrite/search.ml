(** Beam search over the rewrite catalog.

    The search explores sequences of {!Rewrite.step}s from
    {!Rewrite.catalog}, scoring each resulting [(kernel, config)] state
    with the analytic device model (the launch pricer
    {!Gpusim.Autotune.launch} with invariant hoisting and affine-lane
    recognition enabled).  A beam of the [width] best states advances up
    to [depth] levels on {!Lime_support.Beam.run}, the loop the placement
    search shares, reporting through {!Lime_support.Beam.hooks} (as
    ["rewrite"]); children are produced by every catalog step that
    applies soundly and deduplicated structurally, so permutations of
    commuting placements cost one evaluation, not many.

    Each piece of work is done once per state, what depends only on the
    kernel body once per body, and nothing that does not depend on the
    device more than once per kernel ({!memo}).  A frontier entry carries
    its body's thread-dependence table and memory analysis ({!body}), the
    body's digest and the state's placement table.  A structural step
    reads only the kernel, and every step changes only the body, so among
    the searches of one kernel a body digest fixes the kernel: each
    (parent body, step) is attempted and each body analyzed once.  A
    parent's body and configuration fix its placement table and every
    child it has, so its children — step, configuration, body digest,
    placement table and signature — are built once per (body,
    configuration) ({!children}): one {!Lime_gpu.Memopt.decide_all} per
    child, plus one [Structural] walk and one marshalled body digest per
    new (body, step), plus one {!Lime_gpu.Taint.thread_dependent} pass
    and one [analyze] per new body.  A launch ({!Gpusim.Autotune.launch}:
    the profile walk {!Gpusim.Autotune.profile} and the array bindings
    {!Gpusim.Autotune.bind}) depends on the state, the shapes and the
    scalars but not on the device, so each distinct state is launched
    once and priced then on every device of {!Gpusim.Device.all}
    ({!price}); a later search of the kernel on any of them reads its
    price.  The walk reads the placement table only to ask which arrays
    are private, so it runs once per (body, private set) and the states
    that share both share its profile; the bindings are each state's
    own.  The baseline's and the Fig 8 seeds' placement tables and
    signatures are built once per kernel too ({!seeds}).  After the first
    search, a search of the same kernel costs its own [seen] dedup, a
    table lookup per seed and per child, and the sorting of its beam.

    A {!memo} belongs to one kernel.  Its key is the MD5 of the whole
    marshalled baseline kernel (name, parameters, return type, body and
    flags): two kernels with equal bodies but different parameters are
    analyzed differently.  A kernel is immutable, so a search of the
    kernel the memo last claimed ([==]) does not marshal it again, and
    the memo keeps the baseline body's digest.  A search of another
    kernel empties the memo before it does any work, and a search with
    other shapes or scalars empties only the profiles and prices, so the
    memo holds one kernel's work and lives as long as its caller keeps
    it.  A caller that tunes one kernel on several devices passes one
    memo to each search (the service keeps the memo of the last kernel it
    searched).  A device that is not physically one of
    {!Gpusim.Device.all} is priced directly, each time.
    Without [?memo] a search builds a fresh one.

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
module Autotune = Gpusim.Autotune

type candidate = {
  sc_sequence : string list;  (** rewrite names, in application order *)
  sc_state : Rewrite.state;
  sc_time_s : float;  (** modeled kernel time on the search device *)
}

type outcome = {
  so_best : candidate;
  so_baseline : candidate;  (** the empty schedule *)
  so_fig8_best : string * candidate;  (** best canned Fig 8 sequence *)
  so_evals : int;  (** cost-model evaluations spent *)
  so_depth_reached : int;  (** beam levels actually expanded *)
}

module Beam = Lime_support.Beam

let emit = Beam.emit "rewrite"

let seq_str = function
  | [] -> "(baseline)"
  | seq -> Rewrite.sequence_to_string seq

let seq_arg seq = ("sequence", seq_str seq)

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)
(* ------------------------------------------------------------------ *)

(** What a state's kernel body determines, whatever its configuration:
    the body's thread-dependence table ({!Lime_gpu.Taint.thread_dependent})
    and its memory analysis with affine-lane recognition on, which reads
    that table.  Computed for the baseline and for each structural child;
    the Fig 8 seeds and every placement child share their parent's. *)
type body = {
  b_thread_vars : (string, unit) Hashtbl.t;
  b_analysis : Memopt.array_info list;
}

let body_of (st : Rewrite.state) : body =
  let k = st.Rewrite.st_kernel in
  let thread_vars = Lime_gpu.Taint.thread_dependent k.Kernel.k_body in
  {
    b_thread_vars = thread_vars;
    b_analysis = Memopt.analyze ~affine_lanes:true ~thread_vars k;
  }

(** The memory optimizer's placements for a state with body [b]. *)
let decisions (st : Rewrite.state) (b : body) : Memopt.decision list =
  Memopt.decide_all st.Rewrite.st_config b.b_analysis

(** Modeled time of one rewrite state under its [decisions], without a
    memo: profile the (possibly restructured) kernel with the
    backend-compiler effects the rewrites rely on (invariant hoisting,
    affine lanes) and price it on the device.  The profile reads [b]'s
    thread-dependence table.  A search prices through {!price}; this is
    for a device outside {!Gpusim.Device.all} and for {!replay}. *)
let score (device : Device.t) (st : Rewrite.state) (b : body)
    (decisions : Memopt.decision list) ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : float =
  let prof, bindings =
    Autotune.launch ~hoist_invariant:true ~affine_lanes:true
      ~thread_vars:b.b_thread_vars st.Rewrite.st_kernel decisions ~shapes
      ~scalars
  in
  (Model.kernel_time device prof bindings).Model.bd_total_s

(** Digest of a state's rewritten body, marshalled without sharing so
    equal structures give equal bytes. *)
let body_digest (st : Rewrite.state) : Digest.t =
  Digest.string
    (Marshal.to_string st.Rewrite.st_kernel.Kernel.k_body
       [ Marshal.No_sharing ])

(** Structural signature of a state: a digest of its {!body_digest} and
    the placement table it induces — each decision's array, placement and
    reason.  A decision's analysis ([d_info]) is left out: it is a
    function of the body and the array, both already in the key.  The
    body digest has a fixed length, so two signatures are equal exactly
    when both the bodies and the tables are (up to MD5).  Two states with
    equal signatures are indistinguishable to the cost model, so the
    search keeps only the first (shortest, earliest) sequence reaching
    each.  The key is 16 bytes: the dedup table never holds an IR body. *)
let signature (body_digest : Digest.t) (decisions : Memopt.decision list) :
    Digest.t =
  let table =
    List.map
      (fun (d : Memopt.decision) ->
        (d.Memopt.d_array, d.Memopt.d_placement, d.Memopt.d_reason))
      decisions
  in
  Digest.string (body_digest ^ Marshal.to_string table [ Marshal.No_sharing ])

let cmp_candidate (a : candidate) (b : candidate) : int =
  compare
    (a.sc_time_s, List.length a.sc_sequence, a.sc_sequence)
    (b.sc_time_s, List.length b.sc_sequence, b.sc_sequence)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(** A frontier entry: a scored candidate with its body's facts, its
    {!body_digest} and its placement table — everything a child reuses
    when its body is the parent's. *)
type entry = {
  en_cand : candidate;
  en_body : body;
  en_digest : Digest.t;
  en_decisions : Memopt.decision list;
}

(** A parent's catalog child, everything about it the device does not
    change: the step, the child's configuration, body digest, placement
    table and {!signature}.  The child's kernel and body facts are its
    body digest's entry in [m_bodies]. *)
type child = {
  c_step : Rewrite.step;
  c_config : Memopt.config;
  c_digest : Digest.t;
  c_decisions : Memopt.decision list;
  c_signature : Digest.t;
}

(** A search's starting state: the baseline or a Fig 8 sequence that
    applies to it, with its configuration, placement table and
    {!signature}.  Its body is the baseline's. *)
type seed = {
  s_name : string;
  s_sequence : string list;
  s_config : Memopt.config;
  s_decisions : Memopt.decision list;
  s_signature : Digest.t;
}

(** One kernel's device-independent search work.  A [Structural]
    attempt reads only the state's kernel, and a step changes a kernel
    only through its body, so for one baseline kernel a body digest fixes
    the kernel, and the parent's body digest fixes the attempt's outcome.
    [m_attempts] keeps that outcome per (parent body digest, step name):
    the child's body digest, or [None] when the step does not apply.
    [m_bodies] keeps each body's kernel and facts per digest, the
    baseline's included.  A parent's body and configuration fix its
    placement table and every child it has, so [m_children] keeps the
    parent's children in catalog order per (body digest, configuration).
    A launch also reads the shapes and scalars, named by [m_price_key].
    Its profile reads the placement table only to ask which arrays are
    private, so [m_profiles] keeps one launch profile per (body digest,
    private arrays in decision order), and [m_prices] keeps, per
    {!signature}, the state's modeled time on each device of
    {!Gpusim.Device.all}, in that order, from that profile and the
    state's own array bindings.  [m_key] names the baseline kernel the
    tables belong to, [m_kernel] is the kernel last claimed under it and
    [m_base_digest] its baseline's {!body_digest}; [m_seeds] holds the
    baseline and Fig 8 {!seed}s once a search has built them.  The
    counters are this search's work, reported on its [End] event. *)
type memo = {
  mutable m_key : Digest.t;  (** [""] until a search claims the memo *)
  mutable m_kernel : Kernel.kernel option;
  mutable m_base_digest : Digest.t;
  mutable m_seeds : (seed * seed list) option;
  mutable m_price_key : Digest.t;  (** the shapes and scalars priced *)
  m_attempts : (Digest.t * string, Digest.t option) Hashtbl.t;
  m_bodies : (Digest.t, Kernel.kernel * body) Hashtbl.t;
  m_children : (Digest.t * Memopt.config, child list) Hashtbl.t;
  m_profiles : (Digest.t * string list, Gpusim.Profile.t) Hashtbl.t;
  m_prices : (Digest.t, float array) Hashtbl.t;
  mutable m_walks : int;  (** structural attempts run *)
  mutable m_hits : int;  (** structural attempts the memo answered *)
  mutable m_analyses : int;  (** {!body_of} calls, a new baseline's included *)
  mutable m_expansions : int;  (** child lists built *)
  mutable m_profiled : int;  (** launch profiles walked *)
  mutable m_launches : int;  (** launches run *)
}

let create_memo () =
  {
    m_key = "";
    m_kernel = None;
    m_base_digest = "";
    m_seeds = None;
    m_price_key = "";
    m_attempts = Hashtbl.create 64;
    m_bodies = Hashtbl.create 16;
    m_children = Hashtbl.create 64;
    m_profiles = Hashtbl.create 64;
    m_prices = Hashtbl.create 64;
    m_walks = 0;
    m_hits = 0;
    m_analyses = 0;
    m_expansions = 0;
    m_profiled = 0;
    m_launches = 0;
  }

(** Claim [m] for a search of [k] launched with [shapes] and [scalars]: a
    memo of another kernel is emptied first, and other shapes or scalars
    empty only the profiles and prices.  A kernel is immutable, so the
    one claimed last ([==]) is not marshalled again; the shapes and
    scalars hold mutable arrays and are hashed on every claim.  The work
    counters restart either way. *)
let claim (m : memo) (k : Kernel.kernel) ~shapes ~scalars =
  let price_key =
    Digest.string (Marshal.to_string (shapes, scalars) [ Marshal.No_sharing ])
  in
  let claimed = match m.m_kernel with Some k' -> k' == k | None -> false in
  let key =
    if claimed then m.m_key
    else Digest.string (Marshal.to_string k [ Marshal.No_sharing ])
  in
  m.m_kernel <- Some k;
  if m.m_key <> key then begin
    Hashtbl.reset m.m_attempts;
    Hashtbl.reset m.m_bodies;
    Hashtbl.reset m.m_children;
    Hashtbl.reset m.m_profiles;
    Hashtbl.reset m.m_prices;
    m.m_key <- key;
    m.m_base_digest <- body_digest (Rewrite.initial k);
    m.m_seeds <- None;
    m.m_price_key <- price_key
  end
  else if m.m_price_key <> price_key then begin
    Hashtbl.reset m.m_profiles;
    Hashtbl.reset m.m_prices;
    m.m_price_key <- price_key
  end;
  m.m_walks <- 0;
  m.m_hits <- 0;
  m.m_analyses <- 0;
  m.m_expansions <- 0;
  m.m_profiled <- 0;
  m.m_launches <- 0

(** [facts m st digest] is the kernel and body facts of [st], whose body
    digest is [digest], analyzing the body only if [m] has not seen it.
    The baseline's lookup and {!structural} share it. *)
let facts (m : memo) (st : Rewrite.state) (digest : Digest.t) :
    Kernel.kernel * body =
  match Hashtbl.find_opt m.m_bodies digest with
  | Some kb -> kb
  | None ->
      m.m_analyses <- m.m_analyses + 1;
      let kb = (st.Rewrite.st_kernel, body_of st) in
      Hashtbl.add m.m_bodies digest kb;
      kb

(** [seeds m st b] is the baseline [st], whose body facts are [b], and
    the Fig 8 sequences that apply to it, in order, as {!seed}s: built by
    the first search of [m]'s kernel and read by the others. *)
let seeds (m : memo) (st : Rewrite.state) (b : body) : seed * seed list =
  match m.m_seeds with
  | Some seeds -> seeds
  | None ->
      let seed name sequence (st : Rewrite.state) =
        let ds = decisions st b in
        {
          s_name = name;
          s_sequence = sequence;
          s_config = st.Rewrite.st_config;
          s_decisions = ds;
          s_signature = signature m.m_base_digest ds;
        }
      in
      let base = seed "" [] st in
      let fig8 =
        List.filter_map
          (fun (name, seq) ->
            if seq = [] then Some { base with s_name = name }
            else
              Result.to_option (Rewrite.apply_sequence st seq)
              |> Option.map (seed name seq))
          Rewrite.fig8_sequences
      in
      m.m_seeds <- Some (base, fig8);
      (base, fig8)

(** [structural m e step] is [e]'s child under the structural [step] —
    its state, body facts and body digest — or [None] when the step does
    not apply (or is a placement).  The only place a search runs a step's
    walk. *)
let structural (m : memo) (e : entry) (step : Rewrite.step) :
    (Rewrite.state * body * Digest.t) option =
  let st = e.en_cand.sc_state in
  let key = (e.en_digest, step.Rewrite.name) in
  let child =
    match Hashtbl.find_opt m.m_attempts key with
    | Some child ->
        m.m_hits <- m.m_hits + 1;
        child
    | None ->
        let child =
          match step.Rewrite.kind with
          | Rewrite.Placement _ -> None
          | Rewrite.Structural attempt -> (
              m.m_walks <- m.m_walks + 1;
              match attempt st with
              | Error _ -> None
              | Ok st' ->
                  let digest = body_digest st' in
                  ignore (facts m st' digest);
                  Some digest)
        in
        Hashtbl.add m.m_attempts key child;
        child
  in
  Option.map
    (fun digest ->
      let k, body = Hashtbl.find m.m_bodies digest in
      ({ st with Rewrite.st_kernel = k }, body, digest))
    child

(** The catalog's structural steps: a child list the memo already holds
    answers that many attempts. *)
let structural_steps =
  List.length
    (List.filter
       (fun (s : Rewrite.step) ->
         match s.Rewrite.kind with
         | Rewrite.Structural _ -> true
         | Rewrite.Placement _ -> false)
       Rewrite.catalog)

(** [children m e] is [e]'s catalog children in catalog order: every
    placement toggle that changes the placement table, and every
    structural step that applies.  Built once per (body, configuration);
    a list [m] already holds answers every structural attempt of the
    parent. *)
let children (m : memo) (e : entry) : child list =
  let cfg = e.en_cand.sc_state.Rewrite.st_config in
  let key = (e.en_digest, cfg) in
  match Hashtbl.find_opt m.m_children key with
  | Some cs ->
      m.m_hits <- m.m_hits + structural_steps;
      cs
  | None ->
      m.m_expansions <- m.m_expansions + 1;
      let placements = Memopt.placements e.en_decisions in
      let child step st digest ds =
        {
          c_step = step;
          c_config = st.Rewrite.st_config;
          c_digest = digest;
          c_decisions = ds;
          c_signature = signature digest ds;
        }
      in
      let cs =
        List.filter_map
          (fun (step : Rewrite.step) ->
            match step.Rewrite.kind with
            | Rewrite.Placement { get; set } ->
                if get cfg then None
                else
                  let st' =
                    { e.en_cand.sc_state with Rewrite.st_config = set cfg }
                  in
                  let ds' = decisions st' e.en_body in
                  if Memopt.placements ds' = placements then None
                  else Some (child step st' e.en_digest ds')
            | Rewrite.Structural _ ->
                Option.map
                  (fun (st', body', digest') ->
                    child step st' digest' (decisions st' body'))
                  (structural m e step))
          Rewrite.catalog
      in
      Hashtbl.add m.m_children key cs;
      cs

(** [slot device] is [device]'s index in {!Gpusim.Device.all}, or [None]
    for a device that is not physically one of them. *)
let slot (device : Device.t) : int option =
  let rec go i = function
    | [] -> None
    | d :: rest -> if d == device then Some i else go (i + 1) rest
  in
  go 0 Device.all

(** The arrays [ds] places in private memory, in decision order: with
    the body, all a launch profile reads of the placement table. *)
let private_arrays (ds : Memopt.decision list) : string list =
  List.filter_map
    (fun (d : Memopt.decision) ->
      if d.Memopt.d_placement.Ir.space = Ir.MPrivate then Some d.Memopt.d_array
      else None)
    ds

(** [price m slot device st b digest ds signature] is the modeled time of
    the state with that {!signature}, body digest [digest] and placement
    table [ds] on [device], whose {!slot} is [slot].  The first time [m]
    sees the signature, one launch is priced on every device of
    {!Gpusim.Device.all}: its profile is [m]'s for the body and private
    arrays, walked only if [m] has none, and its array bindings are the
    state's own.  A device outside them is priced directly and not kept.
    The only place a search launches. *)
let price (m : memo) (slot : int option) (device : Device.t)
    (st : Rewrite.state) (b : body) (digest : Digest.t)
    (ds : Memopt.decision list) (signature : Digest.t) ~shapes ~scalars :
    float =
  match slot with
  | None ->
      m.m_launches <- m.m_launches + 1;
      score device st b ds ~shapes ~scalars
  | Some i -> (
      match Hashtbl.find_opt m.m_prices signature with
      | Some times -> times.(i)
      | None ->
          m.m_launches <- m.m_launches + 1;
          let k = st.Rewrite.st_kernel in
          let key = (digest, private_arrays ds) in
          let prof =
            match Hashtbl.find_opt m.m_profiles key with
            | Some prof -> prof
            | None ->
                m.m_profiled <- m.m_profiled + 1;
                let prof =
                  Autotune.profile ~hoist_invariant:true ~affine_lanes:true
                    ~thread_vars:b.b_thread_vars k ds ~shapes ~scalars
                in
                Hashtbl.add m.m_profiles key prof;
                prof
          in
          let bindings = Autotune.bind k ds ~shapes prof in
          let times =
            Array.of_list
              (List.map
                 (fun d -> (Model.kernel_time d prof bindings).Model.bd_total_s)
                 Device.all)
          in
          Hashtbl.add m.m_prices signature times;
          times.(i))

(** [memo_time m device signature] is the time [m]'s price table holds
    for the state with that {!signature} on [device], if any. *)
let memo_time (m : memo) (device : Device.t) (signature : Digest.t) :
    float option =
  match (slot device, Hashtbl.find_opt m.m_prices signature) with
  | Some i, Some times -> Some times.(i)
  | _ -> None

let default_width = 8
let default_depth = 5

(** [search device k ~shapes ~scalars] beam-searches a rewrite schedule
    for [k] launched with the given argument shapes.  [width] states
    survive each level; at most [depth] rewrites are chained. *)
let search ?(memo = create_memo ()) ?(width = default_width)
    ?(depth = default_depth) (device : Device.t) (k : Kernel.kernel)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : outcome =
  let width = max 1 width and depth = max 0 depth in
  emit
    (Beam.Begin
       [
         ("kernel", k.Kernel.k_name);
         ("device", device.Device.name);
         ("width", string_of_int width);
         ("depth", string_of_int depth);
       ]);
  let evals = ref 0 in
  let slot = slot device in
  let evaluate (sequence : string list) (st : Rewrite.state) body digest ds
      signature : entry =
    incr evals;
    let time_s =
      price memo slot device st body digest ds signature ~shapes ~scalars
    in
    {
      en_cand = { sc_sequence = sequence; sc_state = st; sc_time_s = time_s };
      en_body = body;
      en_digest = digest;
      en_decisions = ds;
    }
  in
  let seen : (Digest.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let fresh_state signature =
    if Hashtbl.mem seen signature then false
    else begin
      Hashtbl.add seen signature ();
      true
    end
  in
  claim memo k ~shapes ~scalars;
  let memo_bodies = Hashtbl.length memo.m_bodies in
  let baseline_state = Rewrite.initial k in
  let baseline_digest = memo.m_base_digest in
  let _, baseline_body = facts memo baseline_state baseline_digest in
  let start (s : seed) =
    ignore (fresh_state s.s_signature);
    evaluate s.s_sequence
      { baseline_state with Rewrite.st_config = s.s_config }
      baseline_body baseline_digest s.s_decisions s.s_signature
  in
  let base_seed, fig8_seeds = seeds memo baseline_state baseline_body in
  let baseline_entry = start base_seed in
  let baseline = baseline_entry.en_cand in
  (* Canned Fig 8 sequences seed the beam: the search result can only be
     at least as good as the paper's sweep winner.  A Fig 8 sequence only
     toggles placements, so its body, and the body's facts, are the
     baseline's. *)
  let fig8_entries =
    List.map
      (fun s ->
        (s.s_name, if s.s_sequence = [] then baseline_entry else start s))
      fig8_seeds
  in
  let fig8_cands =
    match fig8_entries with
    | [] -> [ ("Global", baseline) ]
    | l -> List.map (fun (name, e) -> (name, e.en_cand)) l
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
  let expand _level (e : entry) =
    List.filter_map
      (fun c ->
        if fresh_state c.c_signature then
          let k, body = Hashtbl.find memo.m_bodies c.c_digest in
          Some
            (evaluate
               (e.en_cand.sc_sequence @ [ c.c_step.Rewrite.name ])
               { Rewrite.st_kernel = k; st_config = c.c_config }
               body c.c_digest c.c_decisions c.c_signature)
        else None)
      (children memo e)
  in
  let on_level level frontier (best : entry) =
    emit
      (Beam.Level
         [
           ("level", string_of_int level);
           ("frontier", string_of_int (List.length frontier));
           ("evals", string_of_int !evals);
           ("best_time_s", Printf.sprintf "%.3e" best.en_cand.sc_time_s);
           seq_arg best.en_cand.sc_sequence;
         ])
  in
  let best_entry, depth_reached =
    Beam.run
      ~cmp:(fun a b -> cmp_candidate a.en_cand b.en_cand)
      ~width ~levels:depth ~expand ~on_level ~best:baseline_entry
      (baseline_entry :: List.map snd fig8_entries)
  in
  let best = best_entry.en_cand in
  emit
    (Beam.End
       {
         evals = !evals;
         best_time_s = best.sc_time_s;
         best = seq_arg best.sc_sequence;
         improved = best.sc_time_s < (snd fig8_best).sc_time_s;
         args =
           [
             ("attempts", string_of_int memo.m_walks);
             ("attempt_hits", string_of_int memo.m_hits);
             ("analyses", string_of_int memo.m_analyses);
             ("expansions", string_of_int memo.m_expansions);
             ("launches", string_of_int memo.m_launches);
             ("profiles", string_of_int memo.m_profiled);
             ("memo_bodies", string_of_int memo_bodies);
           ];
       });
  {
    so_best = best;
    so_baseline = baseline;
    so_fig8_best = fig8_best;
    so_evals = !evals;
    so_depth_reached = depth_reached;
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
  let replayed ok =
    emit
      (Beam.Replay
         { args = [ ("kernel", k.Kernel.k_name); seq_arg sequence ]; ok })
  in
  match Rewrite.apply_sequence (Rewrite.initial k) sequence with
  | Error m ->
      replayed false;
      Error m
  | Ok st ->
      replayed true;
      let body = body_of st in
      Ok
        {
          sc_sequence = sequence;
          sc_state = st;
          sc_time_s = score device st body (decisions st body) ~shapes ~scalars;
        }

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
