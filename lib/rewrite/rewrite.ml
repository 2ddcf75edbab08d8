(** A catalog of composable kernel-IR rewrites.

    The paper's optimizer (§4.2) fixes eight memory configurations and
    sweeps them (Fig 8).  This module re-expresses that space — and extends
    it with loop restructuring the Fig 8 space cannot reach — as a library
    of small, independent, semantics-preserving transformations over
    {!Lime_gpu.Kernel.kernel}, in the style of Steuwer et al.'s rewrite
    rules for systematic GPU code generation.

    A rewrite is a {!step}: a [name] (its serialization for the tunestore)
    and a {!kind}.  A structural step has a site shape — the statements a
    rewrite of it may head, before any soundness check — and one function
    that walks to the {e first} site it can rewrite soundly, in
    depth-first program order, and returns the rewritten state or the
    reason it cannot — the target is resolved once and transformed there.
    First-site semantics makes a sequence of names a complete, replayable
    description of a schedule.  One walk of a body finds every structural
    step's first candidate site ({!first_sites}), so a search attempts a
    step only where the body has a site for it, and from that site on.

    Two families:

    - {b structural} rewrites change the loop nest itself: [tile:T]
      (strip-mine an exactly divisible counted loop, guard-free),
      [interchange] (swap a perfectly nested sequential pair when every
      carried store is an associative accumulation), [unroll] (fully
      unroll a short constant loop, turning its index into a compile-time
      lane), [fission] / [fusion] (split/merge independent loop bodies),
      [scalarize] (small constant-indexed array to scalar variables),
      [soa] (split a fixed-innermost 2-D array into per-lane 1-D arrays);
    - {b placement} rewrites toggle one {!Lime_gpu.Memopt.config} flag
      ([local], [pad], [constant], [image], [vec]); the decision engine
      remains {!Lime_gpu.Memopt.decide_all}, so the eight Fig 8
      configurations are exactly the canned sequences of
      {!fig8_sequences}.

    Rewrites never change observable results: structural steps are
    bit-exact except [interchange], which reassociates floating-point
    accumulations (validated under a relative tolerance by the
    differential tests). *)

module Ir = Lime_ir.Ir
module Kernel = Lime_gpu.Kernel
module Memopt = Lime_gpu.Memopt
module Ast = Lime_frontend.Ast

type state = {
  st_kernel : Kernel.kernel;
  st_config : Memopt.config;
}

let initial ?(config = Memopt.config_global) (k : Kernel.kernel) : state =
  { st_kernel = k; st_config = config }

type kind =
  | Structural of {
      site : Ir.stmt list -> bool;
          (** a candidate site heads this statement list: the step's
              shape, before its soundness check *)
      attempt : from:int -> state -> (state, string) result;
          (** one walk to the first site, among the statements from the
              [from]th on in depth-first preorder, that can be rewritten
              soundly: the rewritten state, or why no site can *)
    }
  | Placement of {
      get : Memopt.config -> bool;
      set : Memopt.config -> Memopt.config;
    }  (** toggle one optimizer flag; always sound *)

type step = { name : string; kind : kind }

(* ------------------------------------------------------------------ *)
(* IR utilities                                                        *)
(* ------------------------------------------------------------------ *)

(** Substitute [Var v] by [repl] in a statement list. *)
let subst_var (v : string) (repl : Ir.expr) (ss : Ir.stmt list) :
    Ir.stmt list =
  let expr = function Ir.Var x when x = v -> repl | e -> e in
  List.map (Ir.map_stmt ~expr) ss

(** The [~stmt] and [~expr] callbacks of {!Ir.iter_stmt} that hand [add]
    every identifier a statement mentions (variables, declarations, loop
    indices). *)
let name_walk (add : string -> unit) =
  let stmt = function
    | Ir.SDecl (v, _, _) -> add v
    | Ir.SAssign (Ir.LVar v, _) -> add v
    | Ir.SAssign (Ir.LStatic (c, f), _) -> add (c ^ "." ^ f)
    | Ir.SFor (v, _, _, _) -> add v
    | Ir.SParFor p -> add p.Ir.pf_var
    | Ir.SReduce r -> add r.Ir.rd_dst
    | Ir.SInlineBlock (n, _) -> add n
    | _ -> ()
  in
  let expr = function Ir.Var v -> add v | _ -> () in
  (stmt, expr)

(** Every identifier mentioned by the statements — the conservative
    footprint used by fission/fusion. *)
let names_of (ss : Ir.stmt list) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let stmt, expr = name_walk (fun v -> Hashtbl.replace tbl v ()) in
  List.iter (Ir.iter_stmt ~stmt ~expr) ss;
  tbl

(** Names written by the statements (assignment targets, store bases,
    declarations, loop indices). *)
let written_of (ss : Ir.stmt list) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let add v = Hashtbl.replace tbl v () in
  let stmt = function
    | Ir.SDecl (v, _, _) -> add v
    | Ir.SAssign (Ir.LVar v, _) -> add v
    | Ir.SAssign (Ir.LStatic (c, f), _) -> add (c ^ "." ^ f)
    | Ir.SArrStore (Ir.Var v, _, _) -> add v
    | Ir.SArrStore _ -> ()
    | Ir.SFor (v, _, _, _) -> add v
    | Ir.SParFor p -> add p.Ir.pf_var
    | Ir.SReduce r -> add r.Ir.rd_dst
    | _ -> ()
  in
  List.iter (Ir.iter_stmt ~stmt) ss;
  tbl

let disjoint a b =
  not (Hashtbl.fold (fun k () acc -> acc || Hashtbl.mem b k) a false)

let used_names (k : Kernel.kernel) : (string, unit) Hashtbl.t =
  let tbl = names_of k.Kernel.k_body in
  List.iter (fun (p, _) -> Hashtbl.replace tbl p ()) k.Kernel.k_params;
  tbl

let fresh tbl base =
  if not (Hashtbl.mem tbl base) then begin
    Hashtbl.add tbl base ();
    base
  end
  else
    let rec go i =
      let c = Printf.sprintf "%s%d" base i in
      if Hashtbl.mem tbl c then go (i + 1)
      else begin
        Hashtbl.add tbl c ();
        c
      end
    in
    go 0

(** Rewrite the first site in depth-first preorder, among the statements
    from the [from]th on: [f] sees each statement suffix and may replace
    it wholesale (which lets a rewrite consume more than one adjacent
    statement, as fusion does).  [at] numbers the statements as the walk
    meets them, in the order {!Ir.iter_stmt} visits them. *)
let rec rewrite_first ~from (at : int ref)
    (f : Ir.stmt list -> Ir.stmt list option) (ss : Ir.stmt list) :
    Ir.stmt list option =
  match ss with
  | [] -> None
  | s :: rest -> (
      let here = !at in
      incr at;
      match if here >= from then f ss else None with
      | Some ss' -> Some ss'
      | None -> (
          match rewrite_children ~from at f s with
          | Some s' -> Some (s' :: rest)
          | None ->
              Option.map (fun r -> s :: r) (rewrite_first ~from at f rest)))

and rewrite_children ~from at f (s : Ir.stmt) : Ir.stmt option =
  let first = rewrite_first ~from at f in
  match s with
  | Ir.SIf (c, a, b) -> (
      match first a with
      | Some a' -> Some (Ir.SIf (c, a', b))
      | None -> Option.map (fun b' -> Ir.SIf (c, a, b')) (first b))
  | Ir.SWhile (c, b) -> Option.map (fun b' -> Ir.SWhile (c, b')) (first b)
  | Ir.SFor (v, lo, hi, b) ->
      Option.map (fun b' -> Ir.SFor (v, lo, hi, b')) (first b)
  | Ir.SParFor p ->
      Option.map
        (fun b' -> Ir.SParFor { p with Ir.pf_body = b' })
        (first p.Ir.pf_body)
  | Ir.SInlineBlock (n, b) ->
      Option.map (fun b' -> Ir.SInlineBlock (n, b')) (first b)
  | _ -> None

let with_body (st : state) (body : Ir.stmt list) : state =
  { st with st_kernel = { st.st_kernel with Kernel.k_body = body } }

let no_site = "no matching site"

(** A structural step that rewrites at its first sound site, from the
    [from]th statement on, in depth-first preorder.  [f] sees each
    statement suffix: [None] is not a site, [Some (Ok ss)] replaces the
    suffix, and [Some (Error why)] is a site that cannot be rewritten
    soundly — the walk moves on, and the last such [why] is the error
    when no later site succeeds.  [site] is the shape every suffix [f]
    does not answer [None] has. *)
let at_first_site ~(site : Ir.stmt list -> bool)
    (f : state -> Ir.stmt list -> (Ir.stmt list, string) result option) :
    kind =
  let attempt ~from st =
    let refused = ref None in
    let f = f st in
    let g ss =
      match f ss with
      | Some (Ok ss') -> Some ss'
      | Some (Error why) ->
          refused := Some why;
          None
      | None -> None
    in
    match rewrite_first ~from (ref 0) g st.st_kernel.Kernel.k_body with
    | Some body -> Ok (with_body st body)
    | None -> Error (Option.value !refused ~default:no_site)
  in
  Structural { site; attempt }

(* ------------------------------------------------------------------ *)
(* tile:T — strip-mine an exactly divisible counted loop               *)
(* ------------------------------------------------------------------ *)

let c0 = Ir.Const (Ir.CInt 0)
let ci n = Ir.Const (Ir.CInt n)

(** [tile t] rewrites the first counted loop [for v in [0, n)] with
    [t | n] into [for vt in [0, n/t) for vv in [0, t)] and substitutes
    [vt*t + vv] for [v].  Exact divisibility keeps the transformation
    guard-free and the iteration order identical, so it is bit-exact. *)
let tile (t : int) : step =
  let site = function
    | Ir.SFor (_, Ir.Const (Ir.CInt 0), Ir.Const (Ir.CInt n), _) :: _ ->
        n > t && n mod t = 0
    | _ -> false
  in
  let kind =
    at_first_site ~site (fun st ss ->
        match ss with
        | Ir.SFor (v, Ir.Const (Ir.CInt 0), Ir.Const (Ir.CInt n), body)
          :: rest
          when site ss ->
            let names = used_names st.st_kernel in
            let vt = fresh names (v ^ "t") in
            let vv = fresh names (v ^ "v") in
            let idx =
              Ir.Bin
                ( Ast.Add,
                  Ir.SInt,
                  Ir.Bin (Ast.Mul, Ir.SInt, Ir.Var vt, ci t),
                  Ir.Var vv )
            in
            Some
              (Ok
                 (Ir.SFor
                    ( vt,
                      c0,
                      ci (n / t),
                      [ Ir.SFor (vv, c0, ci t, subst_var v idx body) ] )
                 :: rest))
        | _ -> None)
  in
  { name = Printf.sprintf "tile:%d" t; kind }

(* ------------------------------------------------------------------ *)
(* interchange — swap a perfectly nested sequential loop pair          *)
(* ------------------------------------------------------------------ *)

(** A loop body is safe to reorder iteration-wise iff every statement is a
    pure computation or an associative accumulation ([x op= e] /
    [a[i] op= e] with [op] in add, mul), the accumulated location is read
    only inside its own accumulation, and control flow stays structured. *)
let reorderable_body (body : Ir.stmt list) : (unit, string) result =
  let accum : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* pass 1: statement shapes; collect accumulation targets *)
  let rec shape s =
    match s with
    | Ir.SDecl (_, Ir.TScalar _, _) | Ir.SExpr _ -> Ok ()
    | Ir.SDecl (_, _, _) -> Error "array declaration in reordered loop"
    | Ir.SAssign (Ir.LVar v, Ir.Bin ((Ast.Add | Ast.Mul), _, Ir.Var v', e))
      when v = v' ->
        if Ir.mentions (String.equal v) e then
          Error "accumulator read inside its own addend"
        else begin
          Hashtbl.replace accum v ();
          Ok ()
        end
    | Ir.SAssign (Ir.LVar v, Ir.Bin (Ast.Add, _, e, Ir.Var v')) when v = v'
      ->
        if Ir.mentions (String.equal v) e then
          Error "accumulator read inside its own addend"
        else begin
          Hashtbl.replace accum v ();
          Ok ()
        end
    | Ir.SAssign _ -> Error "assignment is not an accumulation"
    | Ir.SArrStore
        ( Ir.Var b,
          idx,
          Ir.Bin ((Ast.Add | Ast.Mul), _, Ir.Load (Ir.Var b', idx'), e) )
      when b = b' && idx = idx' ->
        if
          Ir.mentions (String.equal b) e
          || Ir.mentions_any (String.equal b) idx
        then Error "accumulated array read outside the accumulation"
        else begin
          Hashtbl.replace accum b ();
          Ok ()
        end
    | Ir.SArrStore _ -> Error "store is not an accumulation"
    | Ir.SIf (_, a, b) -> all (a @ b)
    | Ir.SFor (_, _, _, b) -> all b
    | Ir.SBreak | Ir.SContinue | Ir.SReturn _ ->
        Error "unstructured control flow"
    | Ir.SWhile _ -> Error "data-dependent loop"
    | Ir.SParFor _ | Ir.SReduce _ | Ir.SInlineBlock _ | Ir.SFinish _ ->
        Error "parallel construct inside reordered loop"
  and all ss =
    List.fold_left
      (fun acc s -> Result.bind acc (fun () -> shape s))
      (Ok ()) ss
  in
  Result.bind (all body) (fun () ->
      (* pass 2: accumulated names must not feed any other expression
         (conditions, bounds, declarations, other accumulations) *)
      let bad = ref None in
      let check_no_accum e =
        List.iter
          (fun v ->
            if Hashtbl.mem accum v && !bad = None then
              bad := Some ("accumulator " ^ v ^ " read elsewhere"))
          (Ir.expr_vars e)
      in
      let rec walk s =
        match s with
        | Ir.SDecl (_, _, init) -> Option.iter check_no_accum init
        | Ir.SAssign (Ir.LVar _, Ir.Bin (_, _, Ir.Var _, e))
        | Ir.SAssign (Ir.LVar _, Ir.Bin (_, _, e, Ir.Var _)) ->
            (* pass 1 admitted only accumulations here: check the addend *)
            check_no_accum e
        | Ir.SAssign (_, e) -> check_no_accum e
        | Ir.SArrStore (_, idx, Ir.Bin (_, _, Ir.Load (_, _), e)) ->
            List.iter check_no_accum idx;
            check_no_accum e
        | Ir.SArrStore (_, idx, v) ->
            List.iter check_no_accum idx;
            check_no_accum v
        | Ir.SIf (c, a, b) ->
            check_no_accum c;
            List.iter walk a;
            List.iter walk b
        | Ir.SFor (_, lo, hi, b) ->
            check_no_accum lo;
            check_no_accum hi;
            List.iter walk b
        | Ir.SExpr e -> check_no_accum e
        | _ -> ()
      in
      List.iter walk body;
      match !bad with None -> Ok () | Some m -> Error m)

(** Swap the first perfectly nested pair of sequential loops.  Legal when
    the inner bounds are invariant in the outer index and the shared body
    is a pure-or-accumulation region; FP accumulations are reassociated,
    so results match only up to rounding. *)
let interchange : step =
  let site = function
    | Ir.SFor (_, _, _, [ Ir.SFor _ ]) :: _ -> true
    | _ -> false
  in
  let kind =
    at_first_site ~site (fun _ -> function
      | Ir.SFor (vo, lo_o, hi_o, [ Ir.SFor (vi, lo_i, hi_i, body) ]) :: rest
        ->
          Some
            (if
               Ir.mentions (String.equal vo) lo_i
               || Ir.mentions (String.equal vo) hi_i
             then Error "inner bounds depend on the outer index"
             else
               Result.map
                 (fun () ->
                   Ir.SFor (vi, lo_i, hi_i, [ Ir.SFor (vo, lo_o, hi_o, body) ])
                   :: rest)
                 (reorderable_body body))
      | _ -> None)
  in
  { name = "interchange"; kind }

(* ------------------------------------------------------------------ *)
(* unroll — fully unroll a short constant-trip loop                    *)
(* ------------------------------------------------------------------ *)

let max_unroll_trips = 16

(* a break/continue at this loop's level would, once unrolled, bind to an
   enclosing loop instead — reject those bodies *)
let rec has_loose_jump (ss : Ir.stmt list) : bool =
  List.exists
    (fun s ->
      match s with
      | Ir.SBreak | Ir.SContinue -> true
      | Ir.SIf (_, a, b) -> has_loose_jump a || has_loose_jump b
      | Ir.SInlineBlock (_, b) -> has_loose_jump b
      | _ -> false)
    ss

(** Rename every declaration in an unrolled copy so splicing copies into
    one scope cannot collide. *)
let rename_decls (names : (string, unit) Hashtbl.t) (ss : Ir.stmt list) :
    Ir.stmt list =
  let renames = Hashtbl.create 4 in
  List.iter
    (Ir.iter_stmt
       ~stmt:(fun s ->
         match s with
         | Ir.SDecl (v, _, _) ->
             if not (Hashtbl.mem renames v) then
               Hashtbl.replace renames v (fresh names (v ^ "u"))
         | _ -> ()))
    ss;
  if Hashtbl.length renames = 0 then ss
  else
    let rn v =
      match Hashtbl.find_opt renames v with Some v' -> v' | None -> v
    in
    let expr = function Ir.Var v -> Ir.Var (rn v) | e -> e in
    let stmt = function
      | Ir.SDecl (v, t, init) -> Ir.SDecl (rn v, t, init)
      | Ir.SAssign (Ir.LVar v, e) -> Ir.SAssign (Ir.LVar (rn v), e)
      | s -> s
    in
    List.map (Ir.map_stmt ~expr ~stmt) ss

(** Fully unroll the first counted loop with 2..16 constant trips,
    substituting the literal index into each copy — which turns affine
    indices like [jt*4 + jj] into statically-known lanes the vectorizer
    can use.  Bit-exact. *)
let unroll : step =
  let site = function
    | Ir.SFor (_, Ir.Const (Ir.CInt lo), Ir.Const (Ir.CInt hi), _) :: _ ->
        hi - lo >= 2 && hi - lo <= max_unroll_trips
    | _ -> false
  in
  let kind =
    at_first_site ~site (fun st ss ->
        match ss with
        | Ir.SFor (v, Ir.Const (Ir.CInt lo), Ir.Const (Ir.CInt hi), body)
          :: rest
          when site ss ->
            if has_loose_jump body then
              Some (Error "break/continue would re-bind to an enclosing loop")
            else
              let copy =
                (* a body that declares nothing needs no renaming, and so
                   no table of the kernel's names *)
                if
                  List.exists
                    (fun s ->
                      let decl = ref false in
                      Ir.iter_stmt
                        ~stmt:(function Ir.SDecl _ -> decl := true | _ -> ())
                        s;
                      !decl)
                    body
                then
                  let names = used_names st.st_kernel in
                  fun ss -> rename_decls names ss
                else Fun.id
              in
              let copies =
                List.concat
                  (List.init (hi - lo) (fun i ->
                       copy (subst_var v (ci (lo + i)) body)))
              in
              Some (Ok (copies @ rest))
        | _ -> None)
  in
  { name = "unroll"; kind }

(* ------------------------------------------------------------------ *)
(* fission / fusion                                                    *)
(* ------------------------------------------------------------------ *)

module Phys = Hashtbl.Make (struct
  type t = Ir.stmt

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(** One walk's split finder: the function returned maps a loop
    [for v in [lo, hi) body] to the first [p] in [1, n) that splits the
    [n]-statement [body] into [body[0,p)] and [body[p,n)] with disjoint
    footprints (the index [v] aside).  A split at [p] is independent iff
    no name other than [v] occurs both before [p] and from [p] on, i.e.
    iff [p] lies in no name's span (first statement, last statement].  A
    loop's spans come from one walk of its body, kept per loop
    (physically); a loop nested in the body that can split (two or more
    statements) hands up its own spans' names instead of being walked
    again, so a nest is walked once, not once per enclosing loop. *)
let split_points () : Ir.stmt -> int option =
  let memo = Phys.create 16 in
  (* [names l f] calls [f] on every name of loop [l] ({!names_of}) *)
  let rec names l f =
    match l with
    | Ir.SFor (v, lo, hi, body) ->
        f v;
        let bound = Ir.iter_expr (function Ir.Var x -> f x | _ -> ()) in
        bound lo;
        bound hi;
        Hashtbl.iter (fun x _ -> f x) (spans l v body)
    | _ -> ()
  (* name -> first and last statement of [body], loop [l]'s, that
     mention it *)
  and spans l v body =
    match Phys.find_opt memo l with
    | Some span -> span
    | None ->
        let span = Hashtbl.create 16 in
        let at = ref 0 in
        let add x =
          if x <> v then
            match Hashtbl.find_opt span x with
            | None -> Hashtbl.add span x (!at, !at)
            | Some (_, last) when last = !at -> ()
            | Some (first, _) -> Hashtbl.replace span x (first, !at)
        in
        let stmt, expr = name_walk add in
        let rec visit s =
          match s with
          | Ir.SFor (_, _, _, _ :: _ :: _) -> names s add
          | _ -> Ir.iter_stmt ~stmt ~expr ~sub:visit s
        in
        List.iteri
          (fun i s ->
            at := i;
            visit s)
          body;
        Phys.add memo l span;
        span
  in
  function
  | Ir.SFor (_, _, _, ([] | [ _ ])) -> None
  | Ir.SFor (v, _, _, body) as l ->
      let n = List.length body in
      (* the prefix sum of [cover] up to [p] counts the spans covering [p] *)
      let cover = Array.make (n + 1) 0 in
      Hashtbl.iter
        (fun _ (first, last) ->
          if first < last then begin
            cover.(first + 1) <- cover.(first + 1) + 1;
            cover.(last + 1) <- cover.(last + 1) - 1
          end)
        (spans l v body);
      let rec split p open_ =
        if p >= n then None
        else
          let open_ = open_ + cover.(p) in
          if open_ = 0 then Some p else split (p + 1) open_
      in
      split 1 0
  | _ -> None

(** Distribute the first loop whose body splits into halves with disjoint
    footprints.  Disjointness makes the halves independent, so running all
    iterations of one before the other is bit-exact. *)
let fission : step =
  let site = function
    | Ir.SFor (_, _, _, _ :: _ :: _) :: _ -> true
    | _ -> false
  in
  let kind =
    at_first_site ~site (fun _ ->
        let split_point = split_points () in
        function
        | (Ir.SFor (v, lo, hi, body) as l) :: rest -> (
            match split_point l with
            | Some p
              when disjoint (written_of body)
                     (names_of [ Ir.SExpr lo; Ir.SExpr hi ]) ->
                let first = List.filteri (fun i _ -> i < p) body in
                let second = List.filteri (fun i _ -> i >= p) body in
                Some
                  (Ok
                     (Ir.SFor (v, lo, hi, first)
                     :: Ir.SFor (v, lo, hi, second)
                     :: rest))
            | _ -> None)
        | _ -> None)
  in
  { name = "fission"; kind }

(** [shares na v2 b2]: a name of [b2] other than its loop index [v2] is
    in [na]; the walk stops at the first. *)
let shares (na : (string, unit) Hashtbl.t) (v2 : string) (b2 : Ir.stmt list)
    : bool =
  let exception Shared in
  let stmt, expr =
    name_walk (fun x -> if x <> v2 && Hashtbl.mem na x then raise Shared)
  in
  match List.iter (Ir.iter_stmt ~stmt ~expr) b2 with
  | () -> false
  | exception Shared -> true

let fusable s1 s2 =
  match (s1, s2) with
  | Ir.SFor (v1, lo1, hi1, b1), Ir.SFor (v2, _, _, b2) ->
      (let na = names_of b1 in
       Hashtbl.remove na v1;
       not (shares na v2 b2))
      && disjoint
           (written_of (b1 @ b2))
           (names_of [ Ir.SExpr lo1; Ir.SExpr hi1 ])
  | _ -> false

(** Merge the first two adjacent loops with identical bounds and disjoint
    body footprints.  Bit-exact under disjointness. *)
let fusion : step =
  let site = function
    | Ir.SFor (_, lo1, hi1, _) :: Ir.SFor (_, lo2, hi2, _) :: _ ->
        lo1 = lo2 && hi1 = hi2
    | _ -> false
  in
  let kind =
    at_first_site ~site (fun _ ss ->
        match ss with
        | (Ir.SFor (v1, lo1, hi1, b1) as s1)
          :: (Ir.SFor (v2, _, _, b2) as s2)
          :: rest
          when site ss && fusable s1 s2 ->
            Some
              (Ok
                 (Ir.SFor (v1, lo1, hi1, b1 @ subst_var v2 (Ir.Var v1) b2)
                 :: rest))
        | _ -> None)
  in
  { name = "fusion"; kind }

(* ------------------------------------------------------------------ *)
(* scalarize / soa — storage-layout rewrites on kernel-local arrays    *)
(* ------------------------------------------------------------------ *)

(** Occurrence discipline for layout rewrites, by counting: [total] is
    every appearance of [Var name]; [clean] counts the appearances inside
    an access shape the rewrite can translate.  The two are equal exactly
    when the array never escapes (no views, no aliasing, no returns, no
    dynamic indices). *)
let usage_clean (k : Kernel.kernel) (name : string)
    ~(clean_load : Ir.expr -> bool) ~(clean_store : Ir.stmt -> bool) : bool
    =
  let total = ref 0 and clean = ref 0 in
  let expr e =
    (match e with Ir.Var v when v = name -> incr total | _ -> ());
    match e with
    | Ir.Load (Ir.Var v, _) when v = name ->
        if clean_load e then incr clean
    | _ -> ()
  in
  let stmt s =
    match s with
    | Ir.SArrStore (Ir.Var v, _, _) when v = name ->
        if clean_store s then incr clean
    | Ir.SAssign (Ir.LVar v, _) when v = name ->
        (* rebinding the array variable: not translatable *)
        incr total
    | _ -> ()
  in
  List.iter (Ir.iter_stmt ~stmt ~expr) k.Kernel.k_body;
  !total > 0 && !total = !clean

let zero_const = function
  | Ir.SInt | Ir.SByte | Ir.SChar -> Ir.Const (Ir.CInt 0)
  | Ir.SLong -> Ir.Const (Ir.CLong 0L)
  | Ir.SFloat -> Ir.Const (Ir.CFloat 0.0)
  | Ir.SDouble -> Ir.Const (Ir.CDouble 0.0)
  | Ir.SBool -> Ir.Const (Ir.CBool false)

let max_scalarize_elems = 8

let in_range i n = i >= 0 && i < n

(** First kernel-local 1-D array of at most {!max_scalarize_elems}
    elements whose every access is a constant index.  The element count
    comes from the declared dimension when it is fixed, or from a
    constant [new] size (lowering leaves local allocations dynamically
    dimensioned even when the size is a literal). *)
let scalarize_shape (s : Ir.stmt) :
    (string * Ir.aty * Ir.expr option * int) option =
  match s with
  | Ir.SDecl (v, Ir.TArr aty, init) -> (
      match (aty.Ir.dims, init) with
      | [ Ir.DFixed n ], (Some (Ir.NewArr _) | Some (Ir.ArrLit _))
        when n >= 1 && n <= max_scalarize_elems ->
          Some (v, aty, init, n)
      | [ Ir.DDyn ], Some (Ir.NewArr (_, [ Ir.Const (Ir.CInt n) ]))
        when n >= 1 && n <= max_scalarize_elems ->
          Some (v, aty, init, n)
      | _ -> None)
  | _ -> None

(** The first statement of [k]'s body, from the [from]th on in
    depth-first preorder, that [f] answers, and [f]'s answer. *)
let first_stmt ~from (k : Kernel.kernel) (f : Ir.stmt -> 'a option) :
    'a option =
  let at = ref 0 and found = ref None in
  List.iter
    (Ir.iter_stmt ~stmt:(fun s ->
         let here = !at in
         incr at;
         if !found = None && here >= from then found := f s))
    k.Kernel.k_body;
  !found

let scalarize_candidate ~from (k : Kernel.kernel) :
    (string * Ir.aty * Ir.expr option * int) option =
  first_stmt ~from k (fun s ->
      match scalarize_shape s with
      | Some (v, _, _, n) as found
        when usage_clean k v
               ~clean_load:(function
                 | Ir.Load (_, [ Ir.Const (Ir.CInt i) ]) -> in_range i n
                 | _ -> false)
               ~clean_store:(function
                 | Ir.SArrStore (_, [ Ir.Const (Ir.CInt i) ], _) ->
                     in_range i n
                 | _ -> false) ->
          found
      | _ -> None)

(** A layout step's site: a declaration of the shape its candidates
    have. *)
let decl_site shape = function s :: _ -> shape s <> None | [] -> false

(** Replace a small constant-indexed local array by one scalar variable
    per element.  Bit-exact. *)
let scalarize : step =
  let attempt ~from (st : state) : (state, string) result =
    match scalarize_candidate ~from st.st_kernel with
    | None -> Error no_site
    | Some (v, aty, init, n) ->
        let names = used_names st.st_kernel in
        let cells =
          Array.init n (fun i -> fresh names (Printf.sprintf "%s_%d" v i))
        in
        let elem = aty.Ir.elem in
        let inits =
          match init with
          | Some (Ir.ArrLit (_, es)) when List.length es = n ->
              Array.of_list es
          | _ -> Array.init n (fun _ -> zero_const elem)
        in
        let expr = function
          | Ir.Load (Ir.Var x, [ Ir.Const (Ir.CInt i) ])
            when x = v && in_range i n ->
              Ir.Var cells.(i)
          | e -> e
        in
        let stmt = function
          | Ir.SArrStore (Ir.Var x, [ Ir.Const (Ir.CInt i) ], e)
            when x = v && in_range i n ->
              Ir.SAssign (Ir.LVar cells.(i), e)
          | s -> s
        in
        let body =
          List.map (Ir.map_stmt ~expr ~stmt) st.st_kernel.Kernel.k_body
        in
        (* splice the per-cell declarations where the array was declared *)
        let body =
          Ir.expand_stmts
            (function
              | Ir.SDecl (x, Ir.TArr _, _) when x = v ->
                  Some
                    (Array.to_list
                       (Array.mapi
                          (fun i cell ->
                            Ir.SDecl (cell, Ir.TScalar elem, Some inits.(i)))
                          cells))
              | _ -> None)
            body
        in
        Ok (with_body st body)
  in
  {
    name = "scalarize";
    kind = Structural { site = decl_site scalarize_shape; attempt };
  }

(** First kernel-local 2-D array with a small fixed innermost dimension
    whose every access is full-rank with a constant last index. *)
let soa_shape (s : Ir.stmt) : (string * Ir.aty * Ir.expr list * int) option =
  match s with
  | Ir.SDecl (v, Ir.TArr aty, Some (Ir.NewArr (_, sizes))) -> (
      match aty.Ir.dims with
      | [ _; Ir.DFixed f ] when f >= 2 && f <= 4 -> Some (v, aty, sizes, f)
      | _ -> None)
  | _ -> None

let soa_candidate ~from (k : Kernel.kernel) :
    (string * Ir.aty * Ir.expr list) option =
  first_stmt ~from k (fun s ->
      match soa_shape s with
      | Some (v, aty, sizes, f)
        when usage_clean k v
               ~clean_load:(function
                 | Ir.Load (_, [ _; Ir.Const (Ir.CInt i) ]) -> in_range i f
                 | _ -> false)
               ~clean_store:(function
                 | Ir.SArrStore (_, [ _; Ir.Const (Ir.CInt i) ], _) ->
                     in_range i f
                 | _ -> false) ->
          Some (v, aty, sizes)
      | _ -> None)

(** Split an array-of-short-rows into one 1-D array per lane (AoS→SoA).
    Bit-exact: the same scalar cells exist, only the addressing differs. *)
let soa : step =
  let attempt ~from (st : state) : (state, string) result =
    match soa_candidate ~from st.st_kernel with
    | None -> Error no_site
    | Some (v, aty, sizes) ->
        let f =
          match aty.Ir.dims with
          | [ _; Ir.DFixed f ] -> f
          | _ -> assert false
        in
        let d0 = List.hd aty.Ir.dims in
        let names = used_names st.st_kernel in
        let lanes =
          Array.init f (fun i -> fresh names (Printf.sprintf "%s_%d" v i))
        in
        let lane_aty = { aty with Ir.dims = [ d0 ] } in
        let expr = function
          | Ir.Load (Ir.Var x, [ lead; Ir.Const (Ir.CInt i) ])
            when x = v && in_range i f ->
              Ir.Load (Ir.Var lanes.(i), [ lead ])
          | e -> e
        in
        let stmt = function
          | Ir.SArrStore (Ir.Var x, [ lead; Ir.Const (Ir.CInt i) ], e)
            when x = v && in_range i f ->
              Ir.SArrStore (Ir.Var lanes.(i), [ lead ], e)
          | s -> s
        in
        let body =
          List.map (Ir.map_stmt ~expr ~stmt) st.st_kernel.Kernel.k_body
        in
        let body =
          Ir.expand_stmts
            (function
              | Ir.SDecl (x, Ir.TArr _, _) when x = v ->
                  Some
                    (Array.to_list
                       (Array.map
                          (fun lane ->
                            Ir.SDecl
                              ( lane,
                                Ir.TArr lane_aty,
                                Some (Ir.NewArr (lane_aty, sizes)) ))
                          lanes))
              | _ -> None)
            body
        in
        Ok (with_body st body)
  in
  { name = "soa"; kind = Structural { site = decl_site soa_shape; attempt } }

(* ------------------------------------------------------------------ *)
(* Placement rewrites — the Fig 8 space as catalog steps               *)
(* ------------------------------------------------------------------ *)

(** A placement step toggles one optimizer flag.  Applying it is always
    legal — the per-array legality lives in {!Lime_gpu.Memopt.decide}.
    The search expands it only when the flag is unset and the toggle
    changes the decision table (so it never wastes beam slots on no-ops);
    replaying a stored sequence just applies it. *)
let placement_step name ~(get : Memopt.config -> bool)
    ~(set : Memopt.config -> Memopt.config) : step =
  { name; kind = Placement { get; set } }

let step_local =
  placement_step "local"
    ~get:(fun c -> c.Memopt.use_local)
    ~set:(fun c -> { c with Memopt.use_local = true })

let step_pad =
  placement_step "pad"
    ~get:(fun c -> c.Memopt.pad_local)
    ~set:(fun c -> { c with Memopt.pad_local = true })

let step_constant =
  placement_step "constant"
    ~get:(fun c -> c.Memopt.use_constant)
    ~set:(fun c -> { c with Memopt.use_constant = true })

let step_image =
  placement_step "image"
    ~get:(fun c -> c.Memopt.use_image)
    ~set:(fun c -> { c with Memopt.use_image = true })

let step_vec =
  placement_step "vec"
    ~get:(fun c -> c.Memopt.vectorize)
    ~set:(fun c -> { c with Memopt.vectorize = true })

(* ------------------------------------------------------------------ *)
(* Catalog, names, sequences                                           *)
(* ------------------------------------------------------------------ *)

let catalog : step list =
  [
    tile 2;
    tile 4;
    tile 8;
    interchange;
    unroll;
    fission;
    fusion;
    scalarize;
    soa;
    step_local;
    step_pad;
    step_constant;
    step_image;
    step_vec;
  ]

let of_name (name : string) : step option =
  match String.index_opt name ':' with
  | Some i when String.sub name 0 i = "tile" -> (
      match
        int_of_string_opt
          (String.sub name (i + 1) (String.length name - i - 1))
      with
      | Some t when t >= 2 -> Some (tile t)
      | _ -> None)
  | _ -> List.find_opt (fun s -> s.name = name) catalog

(** Legality-checked application (the replay path): the error names the
    step and says why — ["<step>: no matching site"] when there is no
    site, ["<step>: <reason>"] when no site can be rewritten soundly. *)
let apply_step (step : step) (st : state) : (state, string) result =
  match step.kind with
  | Structural { attempt; _ } ->
      Result.map_error (fun m -> step.name ^ ": " ^ m) (attempt ~from:0 st)
  | Placement { set; _ } -> Ok { st with st_config = set st.st_config }

let apply_sequence (st : state) (names : string list) :
    (state, string) result =
  List.fold_left
    (fun acc n ->
      Result.bind acc (fun st ->
          match of_name n with
          | None -> Error (Printf.sprintf "unknown rewrite %S" n)
          | Some step -> apply_step step st))
    (Ok st) names

(** One walk of [body] in depth-first preorder that tests every statement
    suffix against each structural step's site shape until each has found
    its first.  Every site shape of the catalog is headed by a counted
    loop or an array declaration, so only those suffixes are tested. *)
let first_sites (steps : step list) (body : Ir.stmt list) : int array =
  let sites =
    Array.of_list
      (List.map
         (fun s ->
           match s.kind with
           | Structural { site; _ } -> site
           | Placement _ -> fun _ -> false)
         steps)
  in
  let first = Array.make (Array.length sites) (-1) in
  let missing = ref (Array.length sites) and at = ref 0 in
  let rec walk ss =
    match ss with
    | [] -> ()
    | s :: rest ->
        if !missing > 0 then begin
          let here = !at in
          incr at;
          (match s with
          | Ir.SFor _ | Ir.SDecl (_, Ir.TArr _, _) ->
              Array.iteri
                (fun i site ->
                  if first.(i) < 0 && site ss then begin
                    first.(i) <- here;
                    decr missing
                  end)
                sites
          | _ -> ());
          (match s with
          | Ir.SIf (_, a, b) ->
              walk a;
              walk b
          | Ir.SWhile (_, b) | Ir.SFor (_, _, _, b) | Ir.SInlineBlock (_, b) ->
              walk b
          | Ir.SParFor p -> walk p.Ir.pf_body
          | _ -> ());
          walk rest
        end
  in
  walk body;
  first

let sequence_to_string (names : string list) : string =
  String.concat ";" names

let sequence_of_string (s : string) : string list =
  String.split_on_char ';' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(** The eight bars of Fig 8 as canned rewrite sequences over
    {!Lime_gpu.Memopt.config_global}: applying each yields exactly the
    corresponding {!Lime_gpu.Memopt.fig8_configs} entry, which is what
    keeps the paper-fidelity experiments unchanged. *)
let fig8_sequences : (string * string list) list =
  [
    ("Global", []);
    ("Global+Vector", [ "vec" ]);
    ("Local", [ "local" ]);
    ("Local+Conflicts removed", [ "local"; "pad" ]);
    ("Local+Conflicts removed+Vector", [ "local"; "pad"; "vec" ]);
    ("Constant", [ "constant" ]);
    ("Constant+Vector", [ "constant"; "vec" ]);
    ("Texture", [ "image" ]);
  ]
