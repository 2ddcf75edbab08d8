(** Beam search over the rewrite catalog.

    The search explores sequences of {!Rewrite.step}s from
    {!Rewrite.catalog}, scoring each resulting [(kernel, config)] state
    with the analytic device model (a launch walked by
    {!Gpusim.Autotune.profile} and bound by {!Gpusim.Autotune.bind}, with
    invariant hoisting and affine-lane recognition enabled).  A beam of
    the [width] best states advances up to [depth] levels on
    {!Lime_support.Beam.run}, the loop the placement search shares,
    reporting through {!Lime_support.Beam.hooks} (as ["rewrite"]);
    children are produced by every catalog step that applies soundly and
    deduplicated structurally, so permutations of commuting placements
    cost one evaluation, not many.

    Each piece of work is done once per state, what depends only on the
    kernel body once per body, and nothing that does not depend on the
    device more than once per kernel ({!memo}).  The memo numbers each
    body it sees, looked up by a hash of the body's statement skeleton
    and structural equality ({!body_key}).  A frontier entry carries its
    body's {!node} and its {!signature}: the body's number and the
    state's placement table.  A structural step reads only the kernel,
    and every step changes only the body, so among the searches of one
    kernel a body fixes the kernel: each (parent body, step) is attempted
    and each body's facts built once ({!facts}).  A body's
    facts are its memory analysis, which reads the body's
    thread-dependence table ({!Lime_gpu.Taint.thread_dependent}, computed
    for it and not kept); its launch walk ({!Gpusim.Autotune.profile}),
    which reads the same table and serves every placement table of the
    body, since a launch profile reads the table only to ask which arrays
    are private; and its site table ({!Rewrite.first_sites}), one walk
    that finds each structural step's first candidate site, made when the
    body is first expanded, as most bodies never are.  A step the site
    table finds no site for fails without a walk of its own (it still
    counts as an attempt), and one with a site is attempted from there.
    A parent's body and configuration fix its placement table and every
    child it has, so its children — step, configuration and signature —
    are built once per (body, configuration) ({!children}): one
    {!Lime_gpu.Memopt.decide_all} per child, plus one attempt and one
    body lookup per new (body, step).  A launch — the body's
    walk under the state's private arrays and the state's array bindings
    ({!Gpusim.Autotune.bind}) — depends on the state, the shapes and the
    scalars but not on the device, so each distinct state is launched
    once and priced then on every device of {!Gpusim.Device.all}
    ({!price}); a later search of the kernel on any of them reads its
    price.  The baseline's and the Fig 8 seeds' placement tables and
    signatures are built once per kernel too ({!seeds}).  After the first
    search, a search of the same kernel costs its own [seen] dedup, a
    table lookup per seed and per child, and the sorting of its beam.

    A {!memo} belongs to one kernel.  Its key is the MD5 of the whole
    marshalled baseline kernel (name, parameters, return type, body and
    flags): two kernels with equal bodies but different parameters are
    analyzed differently.  A kernel is immutable, so a search of the
    kernel the memo last claimed ([==]) does not marshal it again, and
    the memo keeps the baseline body's node.  A search of another
    kernel empties the memo before it does any work, and a search with
    other shapes or scalars drops only the bodies' launch walks and the
    prices, so the memo holds one kernel's work and lives as long as its
    caller keeps it.  A caller that tunes one kernel on several devices
    passes one memo to each search (the service keeps the memo of the
    last kernel it searched).  A device that is not physically one of
    {!Gpusim.Device.all} is priced directly, each time.  Without [?memo]
    a search builds a fresh one.  A replay goes through the same pieces
    ({!replay}), on the memo of its kernel's searches when handed it and
    on a fresh memo of its own otherwise: what the memo records — a
    structural step's outcome, a body's facts, a state's price — it
    reads, and what it lacks it builds as a search would.

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
module Clock = Lime_support.Clock

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

(** [emit ev] reports [ev ()] as ["rewrite"], building it only when
    someone observes. *)
let emit ev = if Beam.observed () then Beam.emit "rewrite" (ev ())

let seq_str = function
  | [] -> "(baseline)"
  | seq -> Rewrite.sequence_to_string seq

let seq_arg seq = ("sequence", seq_str seq)

(* ------------------------------------------------------------------ *)
(* Body keys and signatures                                            *)
(* ------------------------------------------------------------------ *)

(* A body's key hashes its statement skeleton — each statement's kind,
   each loop's index and bounds, each declared name — and leaves the
   expressions out: the bodies of one search differ in their loop nests
   and declarations, so the skeleton tells them apart, and structural
   equality ([compare]) settles the rest.  [compare] skips physically
   shared subtrees, which a rewrite leaves in place outside its site, so
   telling two relatives apart costs about the path to where they
   differ. *)

let mix h x = (h * 65599) + x

let rec skeleton (h : int) (ss : Ir.stmt list) : int =
  List.fold_left stmt_skeleton (mix h 1) ss

and stmt_skeleton h (s : Ir.stmt) =
  match s with
  | Ir.SFor (v, lo, hi, b) ->
      let h = mix (mix h 2) (Hashtbl.hash v) in
      skeleton (mix h (Hashtbl.hash (lo, hi))) b
  | Ir.SParFor p ->
      skeleton (mix (mix h 3) (Hashtbl.hash p.Ir.pf_var)) p.Ir.pf_body
  | Ir.SIf (_, a, b) -> skeleton (mix (skeleton (mix h 4) a) 5) b
  | Ir.SWhile (_, b) -> skeleton (mix h 6) b
  | Ir.SInlineBlock (n, b) -> skeleton (mix (mix h 7) (Hashtbl.hash n)) b
  | Ir.SDecl (v, _, _) -> mix (mix h 8) (Hashtbl.hash v)
  | Ir.SAssign _ -> mix h 9
  | Ir.SArrStore _ -> mix h 10
  | Ir.SReduce _ -> mix h 11
  | Ir.SReturn _ -> mix h 12
  | Ir.SExpr _ -> mix h 13
  | Ir.SBreak -> mix h 14
  | Ir.SContinue -> mix h 15
  | Ir.SFinish _ -> mix h 16

(** A kernel body as a table key: the body and its skeleton's hash,
    taken once. *)
type body_key = { bk_body : Ir.stmt list; bk_hash : int }

let body_key (body : Ir.stmt list) : body_key =
  { bk_body = body; bk_hash = skeleton 0 body land max_int }

module Bodies = Hashtbl.Make (struct
  type t = body_key

  let equal a b =
    a.bk_hash = b.bk_hash && compare a.bk_body b.bk_body = 0

  let hash k = k.bk_hash
end)

(** A placement table as a string: two bytes per decision, in decision
    order — the memory space with the padding flag, then the vector
    width.  The arrays are left out: a body's analysis fixes them and
    their order.  So are the reasons: within one body each array's reason
    follows from its placement ({!Lime_gpu.Memopt.decide} gives each space
    one reason, global memory one for written arrays and one for
    read-only ones), and the cost model never reads it. *)
let placement_table (ds : Memopt.decision list) : string =
  let b = Bytes.create (2 * List.length ds) in
  List.iteri
    (fun i (d : Memopt.decision) ->
      let p = d.Memopt.d_placement in
      let space =
        match p.Ir.space with
        | Ir.MGlobal -> 0
        | Ir.MLocal -> 1
        | Ir.MPrivate -> 2
        | Ir.MConstant -> 3
        | Ir.MImage -> 4
        | Ir.MHost -> 5
      in
      Bytes.set b (2 * i) (Char.chr ((2 * space) + Bool.to_int p.Ir.padded));
      Bytes.set b ((2 * i) + 1) (Char.chr p.Ir.vector_width))
    ds;
  Bytes.unsafe_to_string b

(** A state's signature: its body's number in the memo ({!node}) and the
    {!placement_table} of its decisions.  A decision's analysis
    ([d_info]) is a function of the body and the array, both fixed by the
    body's number.  Two states with equal signatures are
    indistinguishable to the cost model, so the search keeps only the
    first (shortest, earliest) sequence reaching each.  The key is a few
    words, holds no decision and no IR body, and is hashed once, when it
    is made; a launch recomputes the state's decisions from its
    configuration. *)
type signature = { g_body : int; g_table : string; g_hash : int }

let signature (body : int) (ds : Memopt.decision list) : signature =
  let table = placement_table ds in
  {
    g_body = body;
    g_table = table;
    g_hash = ((body * 65599) + Hashtbl.hash table) land max_int;
  }

module Sig = Hashtbl.Make (struct
  type t = signature

  let equal a b =
    a.g_hash = b.g_hash && a.g_body = b.g_body
    && String.equal a.g_table b.g_table

  let hash g = g.g_hash
end)

let cmp_candidate (a : candidate) (b : candidate) : int =
  match Float.compare a.sc_time_s b.sc_time_s with
  | 0 -> (
      match
        Int.compare (List.length a.sc_sequence) (List.length b.sc_sequence)
      with
      | 0 -> compare a.sc_sequence b.sc_sequence
      | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(** A body a {!memo} has seen, with its facts: its number in the memo,
    the body's kernel, its memory analysis (affine lanes on), its site
    table — each structural step's first candidate site
    ({!Rewrite.first_sites}), walked when the body is first expanded,
    since most bodies never are — and its launch walk
    ({!Gpusim.Autotune.profile}) for the shapes and scalars the memo
    prices, [None] once they change.  The thread-dependence table both
    walks read is not kept.  [n_steps] holds, once the body is first
    expanded, each structural step's outcome in catalog order: the
    child's node, or [None] when the step does not apply. *)
type node = {
  n_id : int;
  n_kernel : Kernel.kernel;
  n_analysis : Memopt.array_info list;
  n_sites : int array Lazy.t;
  mutable n_walk : Gpusim.Profile.walk option;
  mutable n_steps : node option array option;
}

(** A frontier entry: a scored candidate with its body's {!node} and its
    {!signature} — everything a child reuses when its body is the
    parent's. *)
type entry = {
  en_cand : candidate;
  en_node : node;
  en_signature : signature;
}

(** A parent's catalog child, everything about it the device does not
    change: the step, the child's configuration, its body's {!node} and
    its {!signature}. *)
type child = {
  c_step : Rewrite.step;
  c_config : Memopt.config;
  c_node : node;
  c_signature : signature;
}

(** A search's starting state: the baseline or a Fig 8 sequence that
    applies to it, with its configuration and {!signature}.  Its body is
    the baseline's. *)
type seed = {
  s_name : string;
  s_sequence : string list;
  s_config : Memopt.config;
  s_signature : signature;
}

(** One kernel's device-independent search work.  A [Structural]
    attempt reads only the state's kernel, and a step changes a kernel
    only through its body, so for one baseline kernel a body fixes the
    kernel and every attempt's outcome.  [m_bodies] keeps each body's
    {!node}, the baseline's ([m_base]) included, numbered in the order
    the memo first sees them; a node keeps its structural steps'
    outcomes.  A parent's body and configuration fix its placement table
    and every child it has, so [m_children] keeps the parent's children
    in catalog order per (body number, configuration).  A launch also
    reads the shapes and scalars, named by [m_price_key]: each node's walk
    is for them, and [m_prices] keeps, per {!signature}, the state's
    modeled time on each device of {!Gpusim.Device.all}, in that order,
    from its body's walk under the state's own placement table.  [m_key]
    names the baseline kernel the tables belong to and [m_kernel] is the
    kernel last claimed under it; [m_seeds] holds the baseline and Fig 8
    {!seed}s once a search has built them.  The counters and times are
    this search's work, reported on its [End] event. *)
type memo = {
  mutable m_key : Digest.t;  (** [""] until a search claims the memo *)
  mutable m_kernel : Kernel.kernel option;
  mutable m_base : node option;
  mutable m_seeds : (seed * seed list) option;
  mutable m_price_key : Digest.t;  (** the shapes and scalars priced *)
  m_bodies : node Bodies.t;
  m_children : (int * Memopt.config, child list) Hashtbl.t;
  m_prices : float array Sig.t;
  mutable m_walks : int;  (** structural attempts made, site-less included *)
  mutable m_hits : int;  (** structural attempts the memo answered *)
  mutable m_analyses : int;  (** bodies analyzed, a new baseline included *)
  mutable m_expansions : int;  (** child lists built *)
  mutable m_profiled : int;  (** launch walks made *)
  mutable m_launches : int;  (** launches priced *)
  mutable m_walk_s : float;  (** in site walks and attempts *)
  mutable m_facts_s : float;  (** in analyses and launch walks *)
  mutable m_digest_s : float;  (** in body keys: hashes and lookups *)
  mutable m_price_s : float;  (** in binding and pricing launches *)
}

let create_memo () =
  {
    m_key = "";
    m_kernel = None;
    m_base = None;
    m_seeds = None;
    m_price_key = "";
    m_bodies = Bodies.create 16;
    m_children = Hashtbl.create 64;
    m_prices = Sig.create 64;
    m_walks = 0;
    m_hits = 0;
    m_analyses = 0;
    m_expansions = 0;
    m_profiled = 0;
    m_launches = 0;
    m_walk_s = 0.0;
    m_facts_s = 0.0;
    m_digest_s = 0.0;
    m_price_s = 0.0;
  }

(** [timed add f] is [f ()], its wall time handed to [add] when someone
    observes the search's events, which report it. *)
let timed (add : float -> unit) f =
  if Beam.observed () then begin
    let t0 = Clock.now_s () in
    let r = f () in
    add (Clock.now_s () -. t0);
    r
  end
  else f ()

let price_key ~shapes ~scalars =
  Digest.string (Marshal.to_string (shapes, scalars) [ Marshal.No_sharing ])

(** [claimed m k ~price_key] holds when [m]'s tables are [k]'s, [k] being
    the kernel [m] last claimed, for the shapes and scalars of
    [price_key]. *)
let claimed (m : memo) (k : Kernel.kernel) ~price_key =
  (match m.m_kernel with Some k' -> k' == k | None -> false)
  && String.equal m.m_price_key price_key

(** Claim [m] for a search of [k] launched with [shapes] and [scalars]: a
    memo of another kernel is emptied first, and other shapes or scalars
    drop only the prices and the bodies' launch walks.  A kernel is
    immutable, so the one claimed last ([==]) is not marshalled again;
    the shapes and scalars hold mutable arrays and are hashed on every
    claim.  The work counters and times restart either way. *)
let claim (m : memo) (k : Kernel.kernel) ~shapes ~scalars =
  let price_key = price_key ~shapes ~scalars in
  let claimed = match m.m_kernel with Some k' -> k' == k | None -> false in
  let key =
    if claimed then m.m_key
    else Digest.string (Marshal.to_string k [ Marshal.No_sharing ])
  in
  m.m_kernel <- Some k;
  if m.m_key <> key then begin
    Bodies.reset m.m_bodies;
    Hashtbl.reset m.m_children;
    Sig.reset m.m_prices;
    m.m_key <- key;
    m.m_base <- None;
    m.m_seeds <- None;
    m.m_price_key <- price_key
  end
  else if m.m_price_key <> price_key then begin
    Bodies.iter (fun _ n -> n.n_walk <- None) m.m_bodies;
    Sig.reset m.m_prices;
    m.m_price_key <- price_key
  end;
  m.m_walks <- 0;
  m.m_hits <- 0;
  m.m_analyses <- 0;
  m.m_expansions <- 0;
  m.m_profiled <- 0;
  m.m_launches <- 0;
  m.m_walk_s <- 0.0;
  m.m_facts_s <- 0.0;
  m.m_digest_s <- 0.0;
  m.m_price_s <- 0.0

(** The catalog's structural steps, in catalog order: the steps a
    {!node}'s site table and outcomes cover. *)
let structural_steps =
  List.filter
    (fun (s : Rewrite.step) ->
      match s.Rewrite.kind with
      | Rewrite.Structural _ -> true
      | Rewrite.Placement _ -> false)
    Rewrite.catalog

(** [facts m k ~shapes ~scalars] is the {!node} of [k]'s body: the only
    place a search builds a body's facts.  A body [m] has not seen is
    numbered, has its thread-dependence table computed, is analyzed and
    gets its site walk (run when first read); a body without a launch
    walk for [m]'s shapes and scalars, new or not, gets one. *)
let facts (m : memo) (k : Kernel.kernel) ~shapes ~scalars : node =
  let key =
    timed
      (fun s -> m.m_digest_s <- m.m_digest_s +. s)
      (fun () -> body_key k.Kernel.k_body)
  in
  match Bodies.find_opt m.m_bodies key with
  | Some ({ n_walk = Some _; _ } as n) -> n
  | known ->
      timed
        (fun s -> m.m_facts_s <- m.m_facts_s +. s)
        (fun () ->
          let k = match known with Some n -> n.n_kernel | None -> k in
          let thread_vars = Lime_gpu.Taint.thread_dependent k.Kernel.k_body in
          let n =
            match known with
            | Some n -> n
            | None ->
                m.m_analyses <- m.m_analyses + 1;
                let n =
                  {
                    n_id = Bodies.length m.m_bodies;
                    n_kernel = k;
                    n_analysis =
                      Memopt.analyze ~affine_lanes:true ~thread_vars k;
                    n_sites =
                      lazy
                        (Rewrite.first_sites structural_steps
                           k.Kernel.k_body);
                    n_walk = None;
                    n_steps = None;
                  }
                in
                Bodies.add m.m_bodies key n;
                n
          in
          m.m_profiled <- m.m_profiled + 1;
          n.n_walk <-
            Some
              (Autotune.profile ~hoist_invariant:true ~affine_lanes:true
                 ~thread_vars k n.n_analysis ~shapes ~scalars);
          n)

let decide (cfg : Memopt.config) (n : node) : Memopt.decision list =
  Memopt.decide_all cfg n.n_analysis

(** [seeds m st n] is the baseline [st], whose body's node is [n], and
    the Fig 8 sequences that apply to it, in order, as {!seed}s: built by
    the first search of [m]'s kernel and read by the others. *)
let seeds (m : memo) (st : Rewrite.state) (n : node) : seed * seed list =
  match m.m_seeds with
  | Some seeds -> seeds
  | None ->
      let seed name sequence (st : Rewrite.state) =
        {
          s_name = name;
          s_sequence = sequence;
          s_config = st.Rewrite.st_config;
          s_signature = signature n.n_id (decide st.Rewrite.st_config n);
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

(** [structural m e] is, for each structural step in catalog order, the
    node of [e]'s child under it, or [None] when the step does not apply:
    the only place a search attempts a step, once per body.  A body with
    no candidate site for a step fails it without a walk, and one with a
    site is walked from there. *)
let structural (m : memo) (e : entry) ~shapes ~scalars : node option array =
  let n = e.en_node in
  match n.n_steps with
  | Some steps ->
      m.m_hits <- m.m_hits + Array.length steps;
      steps
  | None ->
      let attempt i (step : Rewrite.step) =
        m.m_walks <- m.m_walks + 1;
        match step.Rewrite.kind with
        | Rewrite.Placement _ -> None
        | Rewrite.Structural { attempt; _ } ->
            timed
              (fun s -> m.m_walk_s <- m.m_walk_s +. s)
              (fun () ->
                let from = (Lazy.force n.n_sites).(i) in
                if from < 0 then None
                else Result.to_option (attempt ~from e.en_cand.sc_state))
            |> Option.map (fun (st' : Rewrite.state) ->
                   facts m st'.Rewrite.st_kernel ~shapes ~scalars)
      in
      let steps = Array.of_list (List.mapi attempt structural_steps) in
      n.n_steps <- Some steps;
      steps

(** [children m e] is [e]'s catalog children in catalog order: every
    placement toggle that changes the placement table, and every
    structural step that applies.  Built once per (body, configuration);
    a list [m] already holds answers every structural attempt of the
    parent. *)
let children (m : memo) (e : entry) ~shapes ~scalars : child list =
  let cfg = e.en_cand.sc_state.Rewrite.st_config in
  let n = e.en_node in
  let key = (n.n_id, cfg) in
  match Hashtbl.find_opt m.m_children key with
  | Some cs ->
      m.m_hits <- m.m_hits + List.length structural_steps;
      cs
  | None ->
      m.m_expansions <- m.m_expansions + 1;
      let steps = structural m e ~shapes ~scalars in
      let child step config n' ds =
        {
          c_step = step;
          c_config = config;
          c_node = n';
          c_signature = signature n'.n_id ds;
        }
      in
      let rec go i = function
        | [] -> []
        | (step : Rewrite.step) :: rest -> (
            match step.Rewrite.kind with
            | Rewrite.Placement { get; set } ->
                let c =
                  if get cfg then None
                  else
                    let ds' = decide (set cfg) n in
                    if String.equal (placement_table ds') e.en_signature.g_table
                    then None
                    else Some (child step (set cfg) n ds')
                in
                Option.to_list c @ go i rest
            | Rewrite.Structural _ ->
                let c =
                  Option.map
                    (fun n' -> child step cfg n' (decide cfg n'))
                    steps.(i)
                in
                Option.to_list c @ go (i + 1) rest)
      in
      let cs = go 0 Rewrite.catalog in
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

(** [price m slot device n cfg g] is the modeled time, on [device], whose
    {!slot} is [slot], of the state with body [n], configuration [cfg]
    and {!signature} [g].  The first time [m] sees the signature, one
    launch — [n]'s walk under the state's decisions, made again from
    [cfg], and their array bindings — is priced on every device of
    {!Gpusim.Device.all}.  A device outside
    them is priced directly and not kept.  The only place a search
    launches. *)
let price (m : memo) (slot : int option) (device : Device.t) (n : node)
    (cfg : Memopt.config) (g : signature) ~shapes ~scalars : float =
  let launch () =
    m.m_launches <- m.m_launches + 1;
    let walk =
      match n.n_walk with
      | Some w -> w
      | None -> Option.get (facts m n.n_kernel ~shapes ~scalars).n_walk
    in
    timed
      (fun s -> m.m_price_s <- m.m_price_s +. s)
      (fun () ->
        let prof, bindings =
          Autotune.bind n.n_kernel (decide cfg n) ~shapes walk
        in
        fun d -> (Model.kernel_time d prof bindings).Model.bd_total_s)
  in
  match slot with
  | None -> launch () device
  | Some i -> (
      match Sig.find_opt m.m_prices g with
      | Some times -> times.(i)
      | None ->
          let time = launch () in
          let times =
            timed
              (fun s -> m.m_price_s <- m.m_price_s +. s)
              (fun () -> Array.of_list (List.map time Device.all))
          in
          Sig.add m.m_prices g times;
          times.(i))

(** [memo_time m device st ds] is the time [m]'s price table holds for
    the state [st] under the placement table [ds] on [device], if any. *)
let memo_time (m : memo) (device : Device.t) (st : Rewrite.state)
    (ds : Memopt.decision list) : float option =
  match
    ( slot device,
      Bodies.find_opt m.m_bodies (body_key st.Rewrite.st_kernel.Kernel.k_body)
    )
  with
  | Some i, Some n ->
      Option.map
        (fun times -> times.(i))
        (Sig.find_opt m.m_prices (signature n.n_id ds))
  | _ -> None

let default_width = 8
let default_depth = 5

let ms s = Printf.sprintf "%.3f" (s *. 1e3)

(** [search device k ~shapes ~scalars] beam-searches a rewrite schedule
    for [k] launched with the given argument shapes.  [width] states
    survive each level; at most [depth] rewrites are chained. *)
let search ?(memo = create_memo ()) ?(width = default_width)
    ?(depth = default_depth) (device : Device.t) (k : Kernel.kernel)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : outcome =
  let width = max 1 width and depth = max 0 depth in
  emit (fun () ->
      Beam.Begin
        [
          ("kernel", k.Kernel.k_name);
          ("device", device.Device.name);
          ("width", string_of_int width);
          ("depth", string_of_int depth);
        ]);
  let evals = ref 0 in
  let slot = slot device in
  let evaluate (sequence : string list) (st : Rewrite.state) node g : entry =
    incr evals;
    let time_s =
      price memo slot device node st.Rewrite.st_config g ~shapes ~scalars
    in
    {
      en_cand = { sc_sequence = sequence; sc_state = st; sc_time_s = time_s };
      en_node = node;
      en_signature = g;
    }
  in
  let seen : unit Sig.t = Sig.create 64 in
  let fresh_state signature =
    if Sig.mem seen signature then false
    else begin
      Sig.add seen signature ();
      true
    end
  in
  claim memo k ~shapes ~scalars;
  let memo_bodies = Bodies.length memo.m_bodies in
  let baseline_state = Rewrite.initial k in
  let baseline_node =
    match memo.m_base with
    | Some ({ n_walk = Some _; _ } as n) -> n
    | _ ->
        let n = facts memo k ~shapes ~scalars in
        memo.m_base <- Some n;
        n
  in
  let start (s : seed) =
    ignore (fresh_state s.s_signature);
    evaluate s.s_sequence
      { baseline_state with Rewrite.st_config = s.s_config }
      baseline_node s.s_signature
  in
  let base_seed, fig8_seeds = seeds memo baseline_state baseline_node in
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
          Some
            (evaluate
               (e.en_cand.sc_sequence @ [ c.c_step.Rewrite.name ])
               { Rewrite.st_kernel = c.c_node.n_kernel; st_config = c.c_config }
               c.c_node c.c_signature)
        else None)
      (children memo e ~shapes ~scalars)
  in
  let on_level level frontier (best : entry) =
    emit (fun () ->
        Beam.Level
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
  emit (fun () ->
      Beam.End
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
              ("walk_ms", ms memo.m_walk_s);
              ("facts_ms", ms memo.m_facts_s);
              ("digest_ms", ms memo.m_digest_s);
              ("price_ms", ms memo.m_price_s);
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

(** [recorded n name] is the child node [n]'s outcomes hold for the
    catalog's structural step [name]: [None] when [n] was never expanded,
    the step failed, or [name] is not a structural step of the catalog. *)
let recorded (n : node) (name : string) : node option =
  let rec go i = function
    | [] -> None
    | (s : Rewrite.step) :: rest ->
        if String.equal s.Rewrite.name name then
          Option.bind n.n_steps (fun steps -> steps.(i))
        else go (i + 1) rest
  in
  go 0 structural_steps

(** Apply a stored schedule (legality-checked, no search) and price the
    result — the cache-warm path: a tunestore hit replays the persisted
    sequence instead of re-searching.  The replay works on [memo] when
    {!claimed} holds it for [k], these shapes and these scalars, and on a
    fresh memo of its own otherwise.  From the baseline's node, a
    placement step changes only the configuration; a structural step
    takes the child its parent's node records ({!recorded}), or is applied
    alone ({!Rewrite.apply_sequence}, whose error is the replay's) and
    its body's node taken from {!facts}.  The final state is priced by
    {!price}.  A replay thus adds to the memo only what a search of its
    states would — bodies, their walks, prices — and never a node's
    outcomes or a child list. *)
let replay ?memo (device : Device.t) (k : Kernel.kernel)
    (sequence : string list) ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : (candidate, string) result =
  let m, slot =
    match memo with
    | Some m when claimed m k ~price_key:(price_key ~shapes ~scalars) ->
        (m, slot device)
    | _ -> (create_memo (), None)
  in
  let work () = m.m_analyses + m.m_profiled + m.m_launches in
  let before = work () and applied = ref false in
  let rec go (n : node) cfg = function
    | [] -> Ok (n, cfg)
    | name :: rest -> (
        match Rewrite.of_name name with
        | Some { Rewrite.kind = Rewrite.Placement { set; _ }; _ } ->
            go n (set cfg) rest
        | _ -> (
            match recorded n name with
            | Some n' -> go n' cfg rest
            | None ->
                applied := true;
                let st = { Rewrite.st_kernel = n.n_kernel; st_config = cfg } in
                Result.bind (Rewrite.apply_sequence st [ name ])
                  (fun (st' : Rewrite.state) ->
                    let n' = facts m st'.Rewrite.st_kernel ~shapes ~scalars in
                    go n' cfg rest)))
  in
  let base =
    match m.m_base with Some n -> n | None -> facts m k ~shapes ~scalars
  in
  let result =
    go base (Rewrite.initial k).Rewrite.st_config sequence
    |> Result.map (fun (n, cfg) ->
           {
             sc_sequence = sequence;
             sc_state = { Rewrite.st_kernel = n.n_kernel; st_config = cfg };
             sc_time_s =
               price m slot device n cfg
                 (signature n.n_id (decide cfg n))
                 ~shapes ~scalars;
           })
  in
  let ok = Result.is_ok result in
  emit (fun () ->
      Beam.Replay
        {
          args =
            [ ("kernel", k.Kernel.k_name); seq_arg sequence ]
            @
            if ok && (not !applied) && work () = before then
              [ ("from", "memo") ]
            else [];
          ok;
        });
  result

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
