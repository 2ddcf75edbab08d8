(** The memory optimizer (paper §4.2.1) and vectorizer (§4.2.2).

    A pattern-matching optimizer: it scans the kernel IR for the memory
    access idioms of Fig 5 and maps each array onto the OpenCL memory
    hierarchy.  No alias analysis and no dependence analysis are needed —
    value types guarantee read-only-ness and the absence of pointers makes
    index classification exact.

    Patterns recognized (per array):

    - {b private} (Fig 5a-b): allocated inside the innermost parallel loop
      (each thread owns its instance) with a small static size;
    - {b local} (Fig 5c-d): read-only array accessed in a sequential loop
      nested inside the parallel loop — every thread streams through the
      same elements, so tiles are staged in local memory (with optional
      bank-conflict padding);
    - {b image} (Fig 5e-f): read-only array whose innermost dimension is 2
      or 4 and whose last-dimension accesses are static — a fit for the
      4-word texel format of OpenCL 1.0 images;
    - {b constant} (Fig 5g-h): read-only array whose accesses are invariant
      in the parallel loop (a broadcast) and small enough for constant
      memory;
    - {b vectorization}: read-only arrays with a bounded innermost dimension
      of 2/4/8/16 accessed by static indices get vector loads.

    Every optimization can be toggled independently, which is how the Fig 8
    sweep over eight configurations is generated. *)

module Ir = Lime_ir.Ir

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  use_private : bool;
  use_local : bool;
  pad_local : bool;  (** remove bank conflicts by padding rows *)
  use_image : bool;
  use_constant : bool;
  vectorize : bool;
}

let config_global =
  {
    use_private = true;
    use_local = false;
    pad_local = false;
    use_image = false;
    use_constant = false;
    vectorize = false;
  }

let config_global_vector = { config_global with vectorize = true }
let config_local = { config_global with use_local = true }
let config_local_noconflict = { config_local with pad_local = true }

let config_local_noconflict_vector =
  { config_local_noconflict with vectorize = true }

let config_constant = { config_global with use_constant = true }
let config_constant_vector = { config_constant with vectorize = true }
let config_image = { config_global with use_image = true }

(** all optimizations on; image takes priority only where constant/local do
    not apply *)
let config_all =
  {
    use_private = true;
    use_local = true;
    pad_local = true;
    use_image = true;
    use_constant = true;
    vectorize = true;
  }

(** The eight bars of Fig 8, in the paper's order. *)
let fig8_configs : (string * config) list =
  [
    ("Global", config_global);
    ("Global+Vector", config_global_vector);
    ("Local", config_local);
    ("Local+Conflicts removed", config_local_noconflict);
    ("Local+Conflicts removed+Vector", config_local_noconflict_vector);
    ("Constant", config_constant);
    ("Constant+Vector", config_constant_vector);
    ("Texture", config_image);
  ]

let config_name c =
  match
    List.find_opt (fun (_, c') -> c' = c) fig8_configs
  with
  | Some (n, _) -> n
  | None -> if c = config_all then "All" else "Custom"

(** Private memory capacity threshold, in elements (the paper: "arrays whose
    size can be determined statically and does not exceed a certain
    threshold"). *)
let private_threshold_elems = 128

(** Constant memory budget in bytes (64KB on all three GPUs of Table 2). *)
let constant_budget_bytes = 65536

(* ------------------------------------------------------------------ *)
(* Access analysis                                                     *)
(* ------------------------------------------------------------------ *)

type array_info = {
  ai_name : string;
  ai_ty : Ir.aty;
  ai_is_param : bool;
  ai_read_only : bool;
  ai_alloc_in_parfor : bool;
  ai_static_elems : int option;
  ai_classes : Access.cls list;  (** deduplicated access classes *)
  ai_innermost_static : bool;
      (** true iff every access supplies constant indices for the innermost
          dimension (needed for image + vectorization) *)
  ai_lane_mod : int;
      (** alignment modulus of affine innermost indices ([v*m + c]): the gcd
          of the [m]s observed, 0 when every innermost index is a plain
          constant.  Only populated under [~affine_lanes:true]. *)
  ai_load_sites : int;
  ai_store_sites : int;
}

type loop_ctx = {
  par_vars : string list;
  seq_vars : string list;
  thread_vars : (string, unit) Hashtbl.t;
      (** the body's thread-dependent variables ({!Taint.thread_dependent}):
          indices using them cannot be broadcast *)
}

(* mutable accumulation per array *)
type acc = {
  mutable a_ty : Ir.aty option;
  mutable a_is_param : bool;
  mutable a_alloc_in_parfor : bool;
  mutable a_classes : Access.cls list;
  mutable a_innermost_static : bool;
  mutable a_lane_mod : int;
  mutable a_loads : int;
  mutable a_stores : int;
  mutable a_rank_full : int;  (** rank of the root array *)
}

(** Analyze every array in a kernel.  Views created by partial indexing
    ([float\[\[4\]\] q = particles\[j\]]) are traced back to their root array:
    an access to the view contributes the combined index list.
    [thread_vars] is the body's {!Taint.thread_dependent} table, computed
    here when the caller does not pass it. *)
let analyze ?(affine_lanes = false) ?thread_vars (k : Kernel.kernel) :
    array_info list =
  let arrays : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  (* view alias: var -> (root, prefix indices) *)
  let views : (string, string * Ir.expr list) Hashtbl.t = Hashtbl.create 16 in
  let order : string list ref = ref [] in
  let get name =
    match Hashtbl.find_opt arrays name with
    | Some a -> a
    | None ->
        let a =
          {
            a_ty = None;
            a_is_param = false;
            a_alloc_in_parfor = false;
            a_classes = [];
            a_innermost_static = true;
            a_lane_mod = 0;
            a_loads = 0;
            a_stores = 0;
            a_rank_full = 0;
          }
        in
        Hashtbl.add arrays name a;
        order := name :: !order;
        a
  in
  (* roots: parameters *)
  List.iter
    (fun (p, t) ->
      match t with
      | Ir.TArr aty ->
          let a = get p in
          a.a_ty <- Some aty;
          a.a_is_param <- true;
          a.a_rank_full <- List.length aty.Ir.dims
      | _ -> ())
    k.Kernel.k_params;
  (* resolve a base expression to (root name, prefix indices); every view
     root is a tracked array, so only a non-view variable can miss *)
  let resolve b suffix =
    match Access.resolve views b suffix with
    | Some (root, _) as r when Hashtbl.mem arrays root -> r
    | _ -> None
  in
  let is_const_expr = function Ir.Const _ -> true | _ -> false in
  let record_access ctx root (full_idx : Ir.expr list) ~store =
    let a = get root in
    if store then a.a_stores <- a.a_stores + 1 else a.a_loads <- a.a_loads + 1;
    (match full_idx with
    | lead :: _ ->
        let cls =
          Access.classify ~par_vars:ctx.par_vars ~seq_vars:ctx.seq_vars
            ~thread_vars:ctx.thread_vars lead
        in
        if not (List.mem cls a.a_classes) then
          a.a_classes <- a.a_classes @ [ cls ]
    | [] -> ());
    (* innermost-dimension access: only meaningful when the access reaches
       the innermost dimension of the root *)
    if a.a_rank_full > 1 && List.length full_idx = a.a_rank_full then begin
      let last = List.nth full_idx (List.length full_idx - 1) in
      if not (is_const_expr last) then
        match (if affine_lanes then Access.affine_lane last else None) with
        | Some (m, _) ->
            let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
            a.a_lane_mod <- (if a.a_lane_mod = 0 then m else gcd a.a_lane_mod m)
        | None -> a.a_innermost_static <- false
    end
    else if a.a_rank_full > 1 && List.length full_idx < a.a_rank_full then
      (* a view escapes without reaching the innermost dim: conservative *)
      ()
  in
  let rec walk_expr ctx (e : Ir.expr) =
    (match e with
    | Ir.Load (b, idx) -> (
        match resolve b idx with
        | Some (root, full) -> record_access ctx root full ~store:false
        | None -> ())
    | Ir.Len _ -> ()
    | _ -> ());
    (* recurse, but do not re-resolve inner loads that feed this one: the
       combined access was already recorded via [resolve].  Index
       expressions still need walking for their own loads. *)
    match e with
    | Ir.Load (b, idx) ->
        (match b with Ir.Var _ -> () | _ -> walk_expr ctx b);
        List.iter (walk_expr ctx) idx
    | _ ->
        (* shallow recursion over direct children *)
        shallow_children ctx e
  and shallow_children ctx e =
    match e with
    | Ir.Const _ | Ir.Var _ | Ir.This | Ir.StaticGet _ -> ()
    | Ir.Bin (_, _, a, b) | Ir.ConnectE (a, b) ->
        walk_expr ctx a;
        walk_expr ctx b
    | Ir.Un (_, _, a) | Ir.Cast (_, _, a) | Ir.Len (a, _)
    | Ir.FieldGet (a, _) | Ir.RangeE a | Ir.ToValueE a ->
        walk_expr ctx a
    | Ir.Load (b, idx) ->
        walk_expr ctx b;
        List.iter (walk_expr ctx) idx
    | Ir.Intrinsic (_, _, args) | Ir.CallF (_, args) | Ir.NewArr (_, args)
    | Ir.ArrLit (_, args) | Ir.NewObj (_, args) ->
        List.iter (walk_expr ctx) args
    | Ir.CallM (_, r, args) ->
        walk_expr ctx r;
        List.iter (walk_expr ctx) args
    | Ir.TaskE _ -> ()
  in
  let rec walk_stmt ctx in_parfor (s : Ir.stmt) =
    match s with
    | Ir.SDecl (v, Ir.TArr aty, init) -> (
        match init with
        | Some (Ir.Load (b, idx)) -> (
            (* view definition *)
            match resolve b idx with
            | Some (root, prefix) ->
                Hashtbl.replace views v (root, prefix);
                (* indexing into the root is itself an access pattern hint
                   but not a memory access; do not count it *)
                List.iter (walk_expr ctx) idx
            | None -> Option.iter (walk_expr ctx) init)
        | Some (Ir.NewArr (_, sizes)) ->
            let a = get v in
            a.a_ty <- Some aty;
            a.a_rank_full <- List.length aty.Ir.dims;
            a.a_alloc_in_parfor <- in_parfor;
            List.iter (walk_expr ctx) sizes
        | Some (Ir.ArrLit (_, es)) ->
            let a = get v in
            a.a_ty <- Some aty;
            a.a_rank_full <- List.length aty.Ir.dims;
            a.a_alloc_in_parfor <- in_parfor;
            List.iter (walk_expr ctx) es
        | Some (Ir.Var src) ->
            (* array alias *)
            (match Hashtbl.find_opt views src with
            | Some entry -> Hashtbl.replace views v entry
            | None -> if Hashtbl.mem arrays src then
                Hashtbl.replace views v (src, []))
        | Some e -> walk_expr ctx e
        | None ->
            let a = get v in
            a.a_ty <- Some aty;
            a.a_rank_full <- List.length aty.Ir.dims;
            a.a_alloc_in_parfor <- in_parfor)
    | Ir.SDecl (_, _, init) -> Option.iter (walk_expr ctx) init
    | Ir.SAssign (Ir.LVar v, e) -> (
        (* re-binding a view variable *)
        (match e with
        | Ir.Load (b, idx) when Hashtbl.mem views v || Hashtbl.mem arrays v
          -> (
            match resolve b idx with
            | Some (root, prefix) -> Hashtbl.replace views v (root, prefix)
            | None -> ())
        | _ -> ());
        walk_expr ctx e)
    | Ir.SAssign (_, e) -> walk_expr ctx e
    | Ir.SArrStore (b, idx, v) ->
        (match resolve b idx with
        | Some (root, full) -> record_access ctx root full ~store:true
        | None -> ());
        List.iter (walk_expr ctx) idx;
        walk_expr ctx v
    | Ir.SIf (c, a, b) ->
        walk_expr ctx c;
        List.iter (walk_stmt ctx in_parfor) a;
        List.iter (walk_stmt ctx in_parfor) b
    | Ir.SWhile (c, b) ->
        walk_expr ctx c;
        List.iter (walk_stmt ctx in_parfor) b
    | Ir.SFor (v, lo, hi, b) ->
        walk_expr ctx lo;
        walk_expr ctx hi;
        let ctx' = { ctx with seq_vars = v :: ctx.seq_vars } in
        List.iter (walk_stmt ctx' in_parfor) b
    | Ir.SParFor p ->
        walk_expr ctx p.Ir.pf_count;
        let ctx' = { ctx with par_vars = p.Ir.pf_var :: ctx.par_vars } in
        List.iter (walk_stmt ctx' true) p.Ir.pf_body
    | Ir.SReduce r -> walk_expr ctx r.Ir.rd_arr
    | Ir.SInlineBlock (_, b) -> List.iter (walk_stmt ctx in_parfor) b
    | Ir.SReturn e -> Option.iter (walk_expr ctx) e
    | Ir.SExpr e -> walk_expr ctx e
    | Ir.SBreak | Ir.SContinue -> ()
    | Ir.SFinish (g, n) ->
        walk_expr ctx g;
        Option.iter (walk_expr ctx) n
  in
  let ctx0 =
    (* dataflow-based thread-dependence: a variable is "per-thread" only if
       the parallel index actually flows into it *)
    {
      par_vars = [];
      seq_vars = [];
      thread_vars =
        (match thread_vars with
        | Some t -> t
        | None -> Taint.thread_dependent k.Kernel.k_body);
    }
  in
  List.iter (walk_stmt ctx0 false) k.Kernel.k_body;
  !order |> List.rev
  |> List.filter_map (fun name ->
         let a = Hashtbl.find arrays name in
         match a.a_ty with
         | None -> None
         | Some ty ->
             Some
               {
                 ai_name = name;
                 ai_ty = ty;
                 ai_is_param = a.a_is_param;
                 ai_read_only = a.a_stores = 0;
                 ai_alloc_in_parfor = a.a_alloc_in_parfor;
                 ai_static_elems = Ir.static_elem_count ty;
                 ai_classes = a.a_classes;
                 ai_innermost_static =
                   a.a_innermost_static && List.length ty.Ir.dims > 1;
                 ai_lane_mod = a.a_lane_mod;
                 ai_load_sites = a.a_loads;
                 ai_store_sites = a.a_stores;
               })

(* ------------------------------------------------------------------ *)
(* Placement decisions                                                 *)
(* ------------------------------------------------------------------ *)

type decision = {
  d_array : string;
  d_placement : Ir.placement;
  d_reason : string;
  d_info : array_info;
}

let vector_width_for cfg (ai : array_info) =
  if not cfg.vectorize then 1
  else if not ai.ai_read_only then 1
  else if not ai.ai_innermost_static then 1
  else
    match Ir.innermost_fixed ai.ai_ty with
    | Some n when n = 2 || n = 4 || n = 8 || n = 16 -> n
    | Some n
      when (ai.ai_lane_mod = 2 || ai.ai_lane_mod = 4 || ai.ai_lane_mod = 8
           || ai.ai_lane_mod = 16)
           && n mod ai.ai_lane_mod = 0 ->
        (* wide rows accessed through affine lanes: vector groups of
           [lane_mod] consecutive elements are statically aligned *)
        ai.ai_lane_mod
    | _ -> 1

let decide ?(constant_left = constant_budget_bytes) cfg (ai : array_info) :
    decision =
  let mk ?(padded = false) ?(vw = 1) space reason =
    {
      d_array = ai.ai_name;
      d_placement = { Ir.space; padded; vector_width = vw };
      d_reason = reason;
      d_info = ai;
    }
  in
  let vw = vector_width_for cfg ai in
  let streams = List.mem Access.AStream ai.ai_classes in
  let broadcast_only =
    ai.ai_classes <> []
    && List.for_all (fun c -> c = Access.ABroadcast) ai.ai_classes
  in
  let shared_stream = streams || broadcast_only in
  let static_bytes =
    match ai.ai_static_elems with
    | Some n -> Some (n * Ir.scalar_size_bytes ai.ai_ty.Ir.elem)
    | None -> None
  in
  if
    cfg.use_private && ai.ai_alloc_in_parfor
    && (match ai.ai_static_elems with
       | Some n -> n <= private_threshold_elems
       | None -> false)
  then mk Ir.MPrivate "small thread-private array allocated in parallel loop"
  else if not ai.ai_read_only then
    mk Ir.MGlobal ~vw:1 "written by the kernel: global memory"
  else if
    cfg.use_image
    && (match Ir.innermost_fixed ai.ai_ty with
       | Some (2 | 4) -> true
       | _ -> false)
    && ai.ai_innermost_static
  then mk Ir.MImage "read-only with innermost dimension 2/4: image (texture)"
  else if
    cfg.use_constant && shared_stream
    && (match static_bytes with
       | Some b -> b <= constant_left
       | None -> true (* checked against the live size at launch time *))
  then mk Ir.MConstant ~vw "broadcast access in parallel loop: constant memory"
  else if cfg.use_local && shared_stream then
    mk Ir.MLocal ~padded:cfg.pad_local ~vw
      "data reuse across threads in nested loop: local memory tile"
  else mk Ir.MGlobal ~vw "default: global memory"

(** Decide a placement for every analyzed array under [cfg].

    The constant-memory budget is accounted cumulatively: each array placed
    in constant memory debits its static size, so a set of broadcast arrays
    that individually fit but together exceed [constant_budget_bytes] does
    not overcommit the space (earlier arrays, in declaration order, win).
    {!analyze} never reads the configuration, so one analysis serves every
    configuration of the same kernel. *)
let decide_all cfg (infos : array_info list) : decision list =
  let _, rev =
    List.fold_left
      (fun (left, acc) ai ->
        let d = decide ~constant_left:left cfg ai in
        let left =
          if d.d_placement.Ir.space = Ir.MConstant then
            match ai.ai_static_elems with
            | Some n -> left - (n * Ir.scalar_size_bytes ai.ai_ty.Ir.elem)
            | None -> left
          else left
        in
        (left, d :: acc))
      (constant_budget_bytes, [])
      infos
  in
  List.rev rev

(** Compute the placement table for a kernel under [cfg]. *)
let optimize ?(affine_lanes = false) cfg (k : Kernel.kernel) : decision list =
  decide_all cfg (analyze ~affine_lanes k)

let placements (ds : decision list) : (string * Ir.placement) list =
  List.map (fun d -> (d.d_array, d.d_placement)) ds

let placement_for (ds : decision list) name : Ir.placement =
  match List.find_opt (fun d -> d.d_array = name) ds with
  | Some d -> d.d_placement
  | None -> Ir.default_placement

let describe (ds : decision list) : string =
  ds
  |> List.map (fun d ->
         Printf.sprintf "%-12s -> %-8s%s%s  (%s; %s)" d.d_array
           (Ir.mem_space_name d.d_placement.Ir.space)
           (if d.d_placement.Ir.padded then " padded" else "")
           (if d.d_placement.Ir.vector_width > 1 then
              Printf.sprintf " vec%d" d.d_placement.Ir.vector_width
            else "")
           (String.concat "," (List.map Access.name d.d_info.ai_classes))
           d.d_reason)
  |> String.concat "\n"
