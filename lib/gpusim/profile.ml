(** Analytic kernel profiler.

    Computes the dynamic operation mix of a kernel launch from the kernel IR
    and the actual argument shapes, without executing every work item: each
    access site and arithmetic node is weighted by the product of enclosing
    loop trip counts.  All the paper's benchmarks are affine (loop bounds
    are array lengths or constants), so the profile is exact; data-dependent
    loops fall back to a trip-count estimate and set {!t.p_approx}.

    Functional correctness is validated separately by executing the same IR
    in the reference interpreter — this module is only about *time*. *)

module Ir = Lime_ir.Ir
module B = Lime_typecheck.Tast
module Access = Lime_gpu.Access

type access = {
  ac_root : string;
  ac_pattern : Access.cls;
  ac_store : bool;
  ac_last_const : bool;  (** innermost index is a compile-time constant *)
  ac_count : float;  (** dynamic accesses over the whole launch *)
}

type t = {
  p_items : float;  (** work items of the top-level parallel loop *)
  p_alu : float;
  p_div : float;
  p_sqrt : float;
  p_trans : float;
  p_double_ops : float;
  p_total_fp : float;
  p_accesses : access list;
  p_private_accesses : float;
  p_reduce_elems : float;
  p_last_parfor_items : float;
      (** trip count of the *last* top-level parallel loop — the one that
          fills the kernel result, used to size the output buffer *)
  p_approx : bool;  (** a trip count had to be estimated *)
}

let double_frac p = if p.p_total_fp = 0.0 then 0.0 else p.p_double_ops /. p.p_total_fp

(* ------------------------------------------------------------------ *)
(* Profiling walker                                                    *)
(* ------------------------------------------------------------------ *)

(** A walk's running counts: all floats, so the record stores them
    unboxed and an update allocates nothing. *)
type counts = {
  mutable alu : float;
  mutable div : float;
  mutable sqrt_ : float;
  mutable trans : float;
  mutable double_ops : float;
  mutable total_fp : float;
  mutable reduce_elems : float;
  mutable items : float;
  mutable last_items : float;
}

type ctx = {
  kernel : Lime_gpu.Kernel.kernel;
  shapes : (string * int array) list;  (** array param -> shape *)
  scalars : (string * float) list;  (** scalar param -> value *)
  views : (string, string * Ir.expr list) Hashtbl.t;
  accs : (string * Access.cls * bool * bool, float ref) Hashtbl.t;
      (** each access site's dynamic count so far, by the fields of its
          {!access} *)
  logged : string list;
      (** under {!walk}, the roots that may be private; [[]] otherwise *)
  mutable order : (string * Access.cls * bool * bool) list;
      (** when [logged] is not [[]], the keys of [accs], last met first *)
  mutable log : (string * float) list;
      (** every access of a [logged] root, last first: root and dynamic
          count *)
  n : counts;
  mutable approx : bool;
  mutable par_vars : string list;
  mutable seq_vars : string list;
  mutable seq_loops : (string * float) list;
      (** enclosing sequential loops, innermost first, with trip counts —
          used by the invariant-hoisting extension *)
  hoist : bool;
      (** model loop-invariant code motion: an access whose index does not
          mention the innermost enclosing sequential loops is issued once
          per outer iteration, not once per inner iteration *)
  affine : bool;
      (** treat affine [v*m + c] innermost indices as statically-known
          lanes (see {!Lime_gpu.Access.affine_lane}) *)
  thread_vars : (string, unit) Hashtbl.t;
  (* local (non-param) array shapes discovered from declarations *)
  local_shapes : (string, int array) Hashtbl.t;
  (* scalar variables with statically known values (e.g. n = arr.length) *)
  scalar_env : (string, float) Hashtbl.t;
}

let root_shape ctx root : int array option =
  match List.assoc_opt root ctx.shapes with
  | Some s -> Some s
  | None -> Hashtbl.find_opt ctx.local_shapes root

(** Best-effort static evaluation of an integer expression given known
    shapes and scalar parameter values. *)
let rec eval_int ctx (e : Ir.expr) : float option =
  match e with
  | Ir.Const (Ir.CInt i) -> Some (float_of_int i)
  | Ir.Const (Ir.CLong l) -> Some (Int64.to_float l)
  | Ir.Var v -> (
      match Hashtbl.find_opt ctx.scalar_env v with
      | Some x -> Some x
      | None -> List.assoc_opt v ctx.scalars)
  | Ir.Len (a, d) -> (
      match Access.resolve ctx.views a [] with
      | Some (root, prefix) -> (
          match root_shape ctx root with
          | Some shape ->
              let dim = List.length prefix + d in
              if dim < Array.length shape then
                Some (float_of_int shape.(dim))
              else None
          | None -> None)
      | None -> None)
  | Ir.Bin (op, _, a, b) -> (
      match (eval_int ctx a, eval_int ctx b) with
      | Some x, Some y -> (
          match op with
          | Lime_frontend.Ast.Add -> Some (x +. y)
          | Lime_frontend.Ast.Sub -> Some (x -. y)
          | Lime_frontend.Ast.Mul -> Some (x *. y)
          | Lime_frontend.Ast.Div when y <> 0.0 -> Some (Float.of_int (int_of_float (x /. y)))
          | _ -> None)
      | _ -> None)
  | Ir.Cast (_, _, a) -> eval_int ctx a
  | _ -> None

let record_access ctx ~mult root (full : Ir.expr list) ~store =
  let mult =
    (* LICM: divide by the trips of the maximal contiguous run of innermost
       sequential loops whose variables the address does not mention — the
       backend compiler keeps such a value in a register across them.
       Applies to loads and to stores (accumulator promotion). *)
    if not ctx.hoist then mult
    else begin
      let rec invariant_trips = function
        | (v, t) :: rest when not (Ir.mentions_any (String.equal v) full) ->
            Float.max 1.0 t *. invariant_trips rest
        | _ -> 1.0
      in
      mult /. invariant_trips ctx.seq_loops
    end
  in
  (match ctx.logged with
  | [] -> ()
  | logged -> if List.mem root logged then ctx.log <- (root, mult) :: ctx.log);
  begin
    let pattern =
      (* arrays allocated inside the parallel loop that did not fit in
         private memory are per-thread spills: every thread touches its own
         instance *)
      if Hashtbl.mem ctx.local_shapes root && ctx.par_vars <> [] then
        Access.AThreadStrided
      else
        match full with
        | lead :: _ ->
            Access.classify ~par_vars:ctx.par_vars ~seq_vars:ctx.seq_vars
              ~thread_vars:ctx.thread_vars lead
        | [] -> Access.ABroadcast
    in
    let last_const =
      match full with
      | _ :: (_ :: _ as rest) -> (
          match List.nth rest (List.length rest - 1) with
          | Ir.Const _ -> true
          | last -> ctx.affine && Access.affine_lane last <> None)
      | _ -> false
    in
    let key = (root, pattern, store, last_const) in
    match Hashtbl.find_opt ctx.accs key with
    | Some n -> n := !n +. mult
    | None ->
        Hashtbl.add ctx.accs key (ref mult);
        match ctx.logged with [] -> () | _ -> ctx.order <- key :: ctx.order
  end

let is_double = function Ir.SDouble -> true | _ -> false
let is_fp = function Ir.SDouble | Ir.SFloat -> true | _ -> false

let rec walk_expr ctx ~mult (e : Ir.expr) : unit =
  match e with
  | Ir.Const _ | Ir.Var _ | Ir.This | Ir.StaticGet _ -> ()
  | Ir.Bin (_, s, a, b) ->
      ctx.n.alu <- ctx.n.alu +. mult;
      if is_fp s then ctx.n.total_fp <- ctx.n.total_fp +. mult;
      if is_double s then ctx.n.double_ops <- ctx.n.double_ops +. mult;
      (match e with
      | Ir.Bin ((Lime_frontend.Ast.Div | Lime_frontend.Ast.Mod), _, _, _) ->
          ctx.n.div <- ctx.n.div +. mult
      | _ -> ());
      walk_expr ctx ~mult a;
      walk_expr ctx ~mult b
  | Ir.Un (_, s, a) | Ir.Cast (s, _, a) ->
      ctx.n.alu <- ctx.n.alu +. mult;
      if is_double s then ctx.n.double_ops <- ctx.n.double_ops +. mult;
      walk_expr ctx ~mult a
  | Ir.Load (b, idx) ->
      (match Access.resolve ctx.views b idx with
      | Some (root, full) -> record_access ctx ~mult root full ~store:false
      | None -> ());
      List.iter (walk_expr ctx ~mult) idx
  | Ir.Len _ -> ()
  | Ir.Intrinsic (b, s, args) ->
      (match b with
      | B.BSin | B.BCos | B.BTan | B.BExp | B.BLog | B.BPow | B.BAtan2 ->
          ctx.n.trans <- ctx.n.trans +. mult
      | B.BSqrt | B.BRsqrt -> ctx.n.sqrt_ <- ctx.n.sqrt_ +. mult
      | _ -> ctx.n.alu <- ctx.n.alu +. mult);
      if is_fp s then ctx.n.total_fp <- ctx.n.total_fp +. mult;
      if is_double s then ctx.n.double_ops <- ctx.n.double_ops +. mult;
      List.iter (walk_expr ctx ~mult) args
  | Ir.NewArr (_, sizes) -> List.iter (walk_expr ctx ~mult) sizes
  | Ir.ArrLit (_, es) -> List.iter (walk_expr ctx ~mult) es
  | Ir.RangeE n -> walk_expr ctx ~mult n
  | Ir.ToValueE a -> walk_expr ctx ~mult a
  | Ir.CallF (_, args) | Ir.NewObj (_, args) ->
      List.iter (walk_expr ctx ~mult) args
  | Ir.CallM (_, r, args) ->
      walk_expr ctx ~mult r;
      List.iter (walk_expr ctx ~mult) args
  | Ir.FieldGet (r, _) -> walk_expr ctx ~mult r
  | Ir.TaskE _ | Ir.ConnectE _ -> ()

(** Record the shape of a local array allocated as [new aty(sizes)], when
    its dynamic sizes evaluate statically (0 where they do not). *)
let record_shape ctx v (aty : Ir.aty) sizes =
  let dims =
    List.map
      (function Ir.DFixed n -> Some (float_of_int n) | Ir.DDyn -> None)
      aty.Ir.dims
  in
  let rec fill dims sizes =
    match (dims, sizes) with
    | [], _ -> []
    | Some d :: rest, s -> d :: fill rest s
    | None :: rest, Some s :: srest -> s :: fill rest srest
    | None :: rest, _ -> 0.0 :: fill rest []
  in
  Hashtbl.replace ctx.local_shapes v
    (Array.of_list
       (List.map int_of_float (fill dims (List.map (eval_int ctx) sizes))))

let rec walk_stmt ctx ~mult (s : Ir.stmt) : unit =
  match s with
  | Ir.SDecl (v, Ir.TArr aty, init) -> (
      match init with
      | Some (Ir.Load (b, idx)) -> (
          match Access.resolve ctx.views b idx with
          | Some entry ->
              Hashtbl.replace ctx.views v entry;
              (* loading a row view costs one access of the row width *)
              let root, prefix = entry in
              record_access ctx ~mult root prefix ~store:false;
              List.iter (walk_expr ctx ~mult) idx
          | None -> ())
      | Some (Ir.Var src) ->
          (match Hashtbl.find_opt ctx.views src with
          | Some entry -> Hashtbl.replace ctx.views v entry
          | None -> Hashtbl.replace ctx.views v (src, []))
      | Some (Ir.NewArr (_, sizes) as e) ->
          record_shape ctx v aty sizes;
          walk_expr ctx ~mult e
      | Some e -> walk_expr ctx ~mult e
      | None -> ())
  | Ir.SDecl (v, Ir.TScalar _, init) ->
      (match init with
      | Some e -> (
          match eval_int ctx e with
          | Some x -> Hashtbl.replace ctx.scalar_env v x
          | None -> ())
      | None -> ());
      Option.iter (walk_expr ctx ~mult) init
  | Ir.SDecl (_, _, init) -> Option.iter (walk_expr ctx ~mult) init
  | Ir.SAssign (lv, e) ->
      (* a re-assigned scalar no longer has a single static value *)
      (match lv with
      | Ir.LVar v -> Hashtbl.remove ctx.scalar_env v
      | _ -> ());
      (* deferred map-output allocation carries the result shape *)
      (match (lv, e) with
      | Ir.LVar v, Ir.NewArr (aty, sizes) -> record_shape ctx v aty sizes
      | _ -> ());
      ctx.n.alu <- ctx.n.alu +. mult;
      walk_expr ctx ~mult e
  | Ir.SArrStore (b, idx, v) ->
      (match Access.resolve ctx.views b idx with
      | Some (root, full) ->
          (* row stores count one access per scalar element *)
          let width =
            match root_shape ctx root with
            | Some shape when List.length full < Array.length shape ->
                let rec prod d =
                  if d >= Array.length shape then 1.0
                  else float_of_int shape.(d) *. prod (d + 1)
                in
                prod (List.length full)
            | _ -> 1.0
          in
          record_access ctx ~mult:(mult *. width) root full ~store:true
      | None -> ());
      List.iter (walk_expr ctx ~mult) idx;
      walk_expr ctx ~mult v
  | Ir.SIf (c, a, b) ->
      walk_expr ctx ~mult c;
      ctx.n.alu <- ctx.n.alu +. mult;
      List.iter (walk_stmt ctx ~mult:(mult *. 0.5)) a;
      List.iter (walk_stmt ctx ~mult:(mult *. 0.5)) b
  | Ir.SWhile (c, b) ->
      (* data-dependent loop: estimate 16 trips and mark approximate *)
      ctx.approx <- true;
      let trips = 16.0 in
      walk_expr ctx ~mult:(mult *. trips) c;
      List.iter (walk_stmt ctx ~mult:(mult *. trips)) b
  | Ir.SFor (v, lo, hi, b) ->
      let trips =
        match (eval_int ctx lo, eval_int ctx hi) with
        | Some l, Some h -> Float.max 0.0 (h -. l)
        | _ ->
            ctx.approx <- true;
            16.0
      in
      ctx.n.alu <- ctx.n.alu +. (mult *. trips);  (* loop increment+compare *)
      ctx.seq_vars <- v :: ctx.seq_vars;
      ctx.seq_loops <- (v, trips) :: ctx.seq_loops;
      List.iter (walk_stmt ctx ~mult:(mult *. trips)) b;
      ctx.seq_loops <- List.tl ctx.seq_loops;
      ctx.seq_vars <- List.tl ctx.seq_vars
  | Ir.SParFor p ->
      let trips =
        match eval_int ctx p.Ir.pf_count with
        | Some n -> n
        | None ->
            ctx.approx <- true;
            1024.0
      in
      if ctx.par_vars = [] then begin
        ctx.n.items <- Float.max ctx.n.items trips;
        ctx.n.last_items <- trips
      end;
      ctx.par_vars <- p.Ir.pf_var :: ctx.par_vars;
      List.iter (walk_stmt ctx ~mult:(mult *. trips)) p.Ir.pf_body;
      ctx.par_vars <- List.tl ctx.par_vars
  | Ir.SReduce r ->
      let n =
        match Access.resolve ctx.views r.Ir.rd_arr [] with
        | Some (root, _) -> (
            match root_shape ctx root with
            | Some shape when Array.length shape > 0 ->
                float_of_int shape.(0)
            | _ ->
                ctx.approx <- true;
                1024.0)
        | None ->
            ctx.approx <- true;
            1024.0
      in
      ctx.n.reduce_elems <- ctx.n.reduce_elems +. (mult *. n);
      ctx.n.alu <- ctx.n.alu +. (mult *. n);
      (match Access.resolve ctx.views r.Ir.rd_arr [] with
      | Some (root, _) ->
          (* a parallel reduction reads its input coalesced (grid-stride):
             classify the synthetic index as the thread id *)
          ctx.par_vars <- "%reduce" :: ctx.par_vars;
          record_access ctx ~mult:(mult *. n) root [ Ir.Var "%reduce" ]
            ~store:false;
          ctx.par_vars <- List.tl ctx.par_vars
      | None -> ())
  | Ir.SInlineBlock (_, b) -> List.iter (walk_stmt ctx ~mult) b
  | Ir.SReturn e -> Option.iter (walk_expr ctx ~mult) e
  | Ir.SExpr e -> walk_expr ctx ~mult e
  | Ir.SBreak | Ir.SContinue -> ()
  | Ir.SFinish _ -> ()

(** Walk [k]'s body once, every array in global memory: the walk's
    context, with every count in it. *)
let run ~hoist_invariant ~affine_lanes ?thread_vars ~logged
    (k : Lime_gpu.Kernel.kernel) ~shapes ~scalars : ctx =
  let ctx =
    {
      kernel = k;
      shapes;
      scalars;
      views = Hashtbl.create 16;
      accs = Hashtbl.create 16;
      order = [];
      logged;
      log = [];
      n =
        {
          alu = 0.0;
          div = 0.0;
          sqrt_ = 0.0;
          trans = 0.0;
          double_ops = 0.0;
          total_fp = 0.0;
          reduce_elems = 0.0;
          items = 1.0;
          last_items = 1.0;
        };
      approx = false;
      par_vars = [];
      seq_vars = [];
      seq_loops = [];
      hoist = hoist_invariant;
      affine = affine_lanes;
      local_shapes = Hashtbl.create 8;
      scalar_env = Hashtbl.create 8;
      thread_vars =
        (match thread_vars with
        | Some t -> t
        | None -> Lime_gpu.Taint.thread_dependent k.Lime_gpu.Kernel.k_body);
    }
  in
  List.iter (walk_stmt ctx ~mult:1.0) k.Lime_gpu.Kernel.k_body;
  ctx

let access_of (root, pattern, store, last_const) n =
  {
    ac_root = root;
    ac_pattern = pattern;
    ac_store = store;
    ac_last_const = last_const;
    ac_count = n;
  }

let of_ctx ctx accesses =
  {
    p_items = ctx.n.items;
    p_alu = ctx.n.alu;
    p_div = ctx.n.div;
    p_sqrt = ctx.n.sqrt_;
    p_trans = ctx.n.trans;
    p_double_ops = ctx.n.double_ops;
    p_total_fp = ctx.n.total_fp;
    p_accesses = accesses;
    p_private_accesses = 0.0;
    p_reduce_elems = ctx.n.reduce_elems;
    p_last_parfor_items = ctx.n.last_items;
    p_approx = ctx.approx;
  }

(* ------------------------------------------------------------------ *)
(* One walk for every private set                                      *)
(* ------------------------------------------------------------------ *)

(* A private array's accesses are counted apart from the memory access
   table ([p_private_accesses]).  The walk counts every root in the table
   and keeps, for each array that may be private, its accesses in walk
   order; a launch's private arrays are then taken out of the table and
   their accesses summed, in walk order, as if the walk had routed them
   aside itself. *)

type walk = {
  w_open : t;  (** the profile with no private array *)
  w_roots : string list;  (** the roots that may be private *)
  w_first : access list;
      (** [w_open]'s accesses in the order the walk first met them; [[]]
          when [w_roots] is *)
  w_private : (string * float) list;
      (** the accesses of the [w_roots] roots: every one, root and count,
          in walk order — or, when every count is a whole number and
          their sum is below 2{^53}, so that any order of adding them
          gives the same float, one sum per root.  The log has an entry
          per static access site, which unrolled bodies multiply: kept
          whole, it tripled the size of TMatMul's search memo. *)
}

(** [arrange accesses] is [accesses], given in the order the walk first
    met them, in the order {!profile}'s table of them folds: the table
    is rebuilt with the same insertions, so its layout, and the order,
    are the same. *)
let arrange (first : access list) : access list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.add tbl (a.ac_root, a.ac_pattern, a.ac_store, a.ac_last_const) a)
    first;
  Hashtbl.fold (fun _ a l -> a :: l) tbl []

(** The walk's profile, its access table folded as it stands. *)
let table_profile ctx : t =
  of_ctx ctx (Hashtbl.fold (fun key n l -> access_of key !n :: l) ctx.accs [])

(** The walk's accesses in the order it first met them. *)
let first_met ctx : access list =
  List.rev_map (fun key -> access_of key !(Hashtbl.find ctx.accs key)) ctx.order

(** [set_apart p privates first accesses] is [p] with [privates] taken
    out of its access table — the rest of [first] in {!arrange}d order —
    and [accesses]' counts of them summed, in order, as its private
    accesses. *)
let set_apart (p : t) (privates : string list) (first : access list)
    (accesses : (string * float) list) : t =
  {
    p with
    p_accesses =
      arrange (List.filter (fun a -> not (List.mem a.ac_root privates)) first);
    p_private_accesses =
      List.fold_left
        (fun acc (root, n) -> if List.mem root privates then acc +. n else acc)
        0.0 accesses;
  }

let walk ?(hoist_invariant = false) ?(affine_lanes = false) ?thread_vars
    ~(private_roots : string list) (k : Lime_gpu.Kernel.kernel)
    ~(shapes : (string * int array) list)
    ~(scalars : (string * float) list) : walk =
  let ctx =
    run ~hoist_invariant ~affine_lanes ?thread_vars ~logged:private_roots k
      ~shapes ~scalars
  in
  if private_roots = [] then
    {
      w_open = table_profile ctx;
      w_roots = [];
      w_first = [];
      w_private = [];
    }
  else
    let first = first_met ctx in
    let exact =
      List.for_all (fun (_, n) -> Float.is_integer n) ctx.log
      && List.fold_left (fun acc (_, n) -> acc +. n) 0.0 ctx.log < 0x1p53
    in
    {
      w_open = of_ctx ctx (arrange first);
      w_roots = private_roots;
      w_first = first;
      w_private =
        (if exact then
           List.map
             (fun root ->
               ( root,
                 List.fold_left
                   (fun acc (r, n) ->
                     if String.equal r root then acc +. n else acc)
                   0.0 ctx.log ))
             private_roots
         else List.rev ctx.log);
    }

(** The arrays [decisions] place in private memory. *)
let privates (decisions : Lime_gpu.Memopt.decision list) : string list =
  List.filter_map
    (fun (d : Lime_gpu.Memopt.decision) ->
      if d.Lime_gpu.Memopt.d_placement.Ir.space = Ir.MPrivate then
        Some d.Lime_gpu.Memopt.d_array
      else None)
    decisions

let under (w : walk) (decisions : Lime_gpu.Memopt.decision list) : t =
  match privates decisions with
  | [] -> w.w_open
  | privates ->
      List.iter
        (fun r ->
          if not (List.mem r w.w_roots) then
            invalid_arg ("Profile.under: " ^ r ^ " was not walked as private"))
        privates;
      set_apart w.w_open privates w.w_first w.w_private

(** Profile one kernel launch: {!under} its decisions of a {!walk} whose
    private roots are its private arrays, made directly.

    [shapes] gives the actual shape of each array argument; [scalars] gives
    the value of scalar arguments that appear in loop bounds;
    [thread_vars] is the body's thread-dependence table, computed here when
    the caller does not pass it. *)
let profile ?hoist_invariant ?affine_lanes ?thread_vars
    (k : Lime_gpu.Kernel.kernel) (decisions : Lime_gpu.Memopt.decision list)
    ~(shapes : (string * int array) list) ~(scalars : (string * float) list) :
    t =
  let hoist_invariant = Option.value hoist_invariant ~default:false
  and affine_lanes = Option.value affine_lanes ~default:false in
  match privates decisions with
  | [] ->
      let ctx =
        run ~hoist_invariant ~affine_lanes ?thread_vars ~logged:[] k ~shapes
          ~scalars
      in
      table_profile ctx
  | privates ->
      let ctx =
        run ~hoist_invariant ~affine_lanes ?thread_vars ~logged:privates k
          ~shapes ~scalars
      in
      set_apart (of_ctx ctx []) privates (first_met ctx) (List.rev ctx.log)

(** Aligned per-kernel profile report: the FLOP mix and the access-pattern
    mix the memory optimizer reasons about, as a table a human can read off
    a terminal. *)
let report (p : t) : string =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "kernel profile%s" (if p.p_approx then " (approximate trip counts)" else "");
  line "  work items        %12.0f" p.p_items;
  line "  FLOP mix:";
  let flop name v =
    let pct =
      let tot = p.p_alu +. p.p_div +. p.p_sqrt +. p.p_trans in
      if tot <= 0.0 then 0.0 else 100.0 *. v /. tot
    in
    line "    %-16s %12.4g  %5.1f%%" name v pct
  in
  flop "alu" p.p_alu;
  flop "div" p.p_div;
  flop "sqrt" p.p_sqrt;
  flop "transcendental" p.p_trans;
  line "    %-16s %12.4g  %5.1f%% of FP work" "double-precision" p.p_double_ops
    (100.0 *. double_frac p);
  let total_mem =
    List.fold_left (fun acc a -> acc +. a.ac_count) 0.0 p.p_accesses
  in
  line "  memory accesses (total %.4g, private %.4g, reduce %.4g):" total_mem
    p.p_private_accesses p.p_reduce_elems;
  line "    %-14s %-14s %-5s %-10s %12s %7s" "array" "pattern" "kind"
    "lane" "count" "share";
  let sorted =
    List.sort (fun a b -> compare (b.ac_count, a.ac_root) (a.ac_count, b.ac_root))
      p.p_accesses
  in
  List.iter
    (fun a ->
      line "    %-14s %-14s %-5s %-10s %12.4g %6.1f%%" a.ac_root
        (Access.name a.ac_pattern)
        (if a.ac_store then "store" else "load")
        (if a.ac_last_const then "const-lane" else "-")
        a.ac_count
        (if total_mem <= 0.0 then 0.0 else 100.0 *. a.ac_count /. total_mem))
    sorted;
  Buffer.contents b

let to_string (p : t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "items=%.0f alu=%.3g div=%.3g sqrt=%.3g trans=%.3g double=%.0f%%%s\n"
       p.p_items p.p_alu p.p_div p.p_sqrt p.p_trans
       (100.0 *. double_frac p)
       (if p.p_approx then " (approx)" else ""));
  List.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "  %-14s %-14s %s%s count=%.4g\n" a.ac_root
           (Access.name a.ac_pattern)
           (if a.ac_store then "store" else "load ")
           (if a.ac_last_const then " const-lane" else "")
           a.ac_count))
    p.p_accesses;
  Buffer.contents b
