(** Kernel access analysis shared by the memory optimizer, the analytic
    profiler and the OpenCL printer: the class of an index against the
    Fig 5 idioms, the lane of an affine innermost index, and the
    resolution of views to their root array. *)

module Ir = Lime_ir.Ir
module Ast = Lime_frontend.Ast

type cls = AThreadLinear | AThreadStrided | AStream | ABroadcast

let name = function
  | AThreadLinear -> "thread-linear"
  | AThreadStrided -> "thread-strided"
  | AStream -> "stream"
  | ABroadcast -> "broadcast"

let classify ~par_vars ~seq_vars ~thread_vars (idx : Ir.expr) : cls =
  let is_par v = List.mem v par_vars || Hashtbl.mem thread_vars v in
  let pure_of rest = not (Ir.mentions is_par rest) in
  if Ir.mentions is_par idx then
    match idx with
    | Ir.Var v when List.mem v par_vars -> AThreadLinear
    | Ir.Bin ((Ast.Add | Ast.Sub), _, Ir.Var v, rest)
      when List.mem v par_vars && pure_of rest ->
        AThreadLinear
    | Ir.Bin (Ast.Add, _, rest, Ir.Var v)
      when List.mem v par_vars && pure_of rest ->
        AThreadLinear
    | _ -> AThreadStrided
  else if Ir.mentions (fun v -> List.mem v seq_vars) idx then AStream
  else ABroadcast

let affine_lane (e : Ir.expr) : (int * int) option =
  let mul = function
    | Ir.Bin (Ast.Mul, _, _, Ir.Const (Ir.CInt m))
    | Ir.Bin (Ast.Mul, _, Ir.Const (Ir.CInt m), _) ->
        Some m
    | _ -> None
  in
  let check m c = if m >= 2 && c >= 0 && c < m then Some (m, c) else None in
  match e with
  | Ir.Bin (Ast.Add, _, a, Ir.Const (Ir.CInt c))
  | Ir.Bin (Ast.Add, _, Ir.Const (Ir.CInt c), a) -> (
      match mul a with Some m -> check m c | None -> None)
  | _ -> ( match mul e with Some m -> check m 0 | None -> None)

let rec resolve views (e : Ir.expr) (suffix : Ir.expr list) :
    (string * Ir.expr list) option =
  match e with
  | Ir.Var v -> (
      match Hashtbl.find_opt views v with
      | Some (root, prefix) -> Some (root, prefix @ suffix)
      | None -> Some (v, suffix))
  | Ir.Load (b, idx) -> resolve views b (idx @ suffix)
  | _ -> None
