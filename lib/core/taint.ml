(** Thread-dependence analysis.

    Computes, for a kernel body, the set of variables whose values depend on
    the parallel index — the information the memory optimizer and the
    profiler need to classify an index expression as per-thread versus
    shared across threads.  Pointer-free value semantics make this a small
    forward dataflow to a fixpoint:

    - the parallel index itself is thread-dependent;
    - a scalar is tainted if its initializer or any assignment to it
      mentions a tainted variable;
    - an array *declared inside* the parallel loop holds per-thread data
      (each iteration owns an instance), so its name is tainted and so is
      any scalar loaded from it (loads mention the array's name);
    - the destination of a reduce over a tainted array is tainted;
    - uninitialized declarations inside the parallel loop are conservatively
      tainted (their single assignment may come from an early-returning
      inline block).

    Sequential loop variables ([SFor]) are *not* tainted — they advance
    identically in every thread, which is exactly what makes the Fig 5(c)
    stream pattern shared. *)

module Ir = Lime_ir.Ir

(** The tainted-variable set of a kernel body.  Includes the parallel index
    variables themselves. *)
let thread_dependent (body : Ir.stmt list) : (string, unit) Hashtbl.t =
  let tainted = Hashtbl.create 32 in
  let changed = ref true in
  let is_tainted v = Hashtbl.mem tainted v in
  let mentions e = Ir.mentions is_tainted e in
  let add v =
    if not (Hashtbl.mem tainted v) then begin
      Hashtbl.replace tainted v ();
      changed := true
    end
  in
  (* [v] is tainted when [e] mentions a tainted variable; a variable
     already tainted needs no look at [e] *)
  let flows e v = if (not (is_tainted v)) && mentions e then add v in
  let rec walk ~in_par (s : Ir.stmt) =
    match s with
    | Ir.SDecl (v, Ir.TArr _, init) ->
        if in_par then add v;
        Option.iter (fun e -> flows e v) init
    | Ir.SDecl (v, _, init) -> (
        match init with
        | Some e -> flows e v
        | None -> if in_par then add v)
    | Ir.SAssign (Ir.LVar v, e) -> flows e v
    | Ir.SAssign (_, _) -> ()
    | Ir.SArrStore (_, _, _) -> ()
    | Ir.SIf (_, a, b) ->
        List.iter (walk ~in_par) a;
        List.iter (walk ~in_par) b
    | Ir.SWhile (_, b) -> List.iter (walk ~in_par) b
    | Ir.SFor (_, _, _, b) -> List.iter (walk ~in_par) b
    | Ir.SParFor p ->
        add p.Ir.pf_var;
        List.iter (walk ~in_par:true) p.Ir.pf_body
    | Ir.SReduce r -> flows r.Ir.rd_arr r.Ir.rd_dst
    | Ir.SInlineBlock (res, b) ->
        List.iter (walk ~in_par) b;
        (* the block's returns feed [res] *)
        if not (is_tainted res) then begin
          let returns_tainted = ref false in
          List.iter
            (Ir.iter_stmt ~stmt:(fun s ->
                 match s with
                 | Ir.SReturn (Some e) when mentions e ->
                     returns_tainted := true
                 | _ -> ()))
            b;
          if !returns_tainted then add res
        end
    | Ir.SReturn _ | Ir.SExpr _ | Ir.SBreak | Ir.SContinue | Ir.SFinish _ ->
        ()
  in
  while !changed do
    changed := false;
    List.iter (walk ~in_par:false) body
  done;
  tainted
