(** Property-based generator of well-typed Lime task-graph programs.

    Programs are pipelines over a deterministic float vector: an
    on-device generator stage ([genCell], hashed from a seed literal
    baked into the source), 1–3 filter stages (pointwise maps and
    sliding-window gathers), an optional terminal reduction, and a
    field-writing sink, wired through a [task .. => task ..] graph.
    Every emitted program must be accepted by the frontend and be total
    at runtime; any downstream rejection or crash is a finding.  See
    [doc/FUZZING.md]. *)

(** Scalar expression over the mapped element [x] and a captured
    per-stage constant [c].  Total by construction ([Sqrt1p] guards its
    argument, there is no division). *)
type fexpr =
  | X
  | C
  | Lit of float
  | Add of fexpr * fexpr
  | Sub of fexpr * fexpr
  | Mul of fexpr * fexpr
  | Neg of fexpr
  | Abs of fexpr
  | Sqrt1p of fexpr  (** rendered [Math.sqrt(e*e + 1.0f)] *)
  | Min of fexpr * fexpr
  | Max of fexpr * fexpr
  | Cond of fexpr * fexpr * fexpr * fexpr  (** [a < b ? t : e] *)

type stage =
  | Map of { cap : float; body : fexpr }
  | Window of { w : int; stride : int; cap : float; body : fexpr }

type reduce = RSum | RMax | RMin

type prog = {
  p_data : int;
  p_n : int;
  p_stages : stage list;
  p_reduce : reduce option;
  p_split : bool;
  p_steps : int;
}

val to_source : prog -> string
(** Render as a self-contained [.lime] compilation unit: [class Gen]
    (stage element functions + workers) and [class GenApp] (input
    generator, sink, and a [main] that fires the task graph). *)

val workers : prog -> string list
(** The worker method names in pipeline order — the values to pass to
    [Pipeline.compile ~worker], and the functions to chain for the
    reference result. *)

val arbitrary : prog QCheck.arbitrary
(** Random programs + structural shrinking + source-level printing: a failure
    report is a loadable [.lime] file, not an AST dump. *)

val corpus : seed:int -> int -> prog list
(** A reproducible program pool: same [seed] and [count] yield the same
    corpus on every machine (bench traffic, CI budgets). *)
