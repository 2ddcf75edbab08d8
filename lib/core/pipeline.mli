(** End-to-end compilation pipeline: Lime source → typed AST → IR →
    extracted kernel → memory placements → OpenCL source (Figure 3 of the
    paper).  This is the primary entry point for downstream users. *)

type compiled = {
  cp_program : Lime_typecheck.Tast.tprogram;  (** typed program *)
  cp_module : Lime_ir.Ir.modul;  (** lowered IR, executable by the interpreter *)
  cp_kernel : Kernel.kernel;  (** extracted, self-contained kernel *)
  cp_decisions : Memopt.decision list;  (** memory placements *)
  cp_opencl : string;  (** generated OpenCL kernel source *)
  cp_config : Memopt.config;
  cp_schedule : string list;
      (** rewrite-step names applied to [cp_kernel] by the optimizer
          strategy, in application order ([[]] = the plain pipeline) *)
}

type optimizer =
  Kernel.kernel -> Memopt.config -> Kernel.kernel * Memopt.config * string list
(** An optimizer strategy: given the extracted (and simplified) kernel and
    the requested configuration, return the kernel and configuration to
    actually compile plus the names of the rewrite steps applied.  The
    pipeline cannot depend on the rewrite engine, so strategies are
    injected — [lime.rewrite]'s beam search and canned Fig 8 sequences
    both plug in here (see [doc/OPTIMIZER.md]). *)

val compile_hooks : (string * float) Lime_support.Hooks.t
(** Compile observers, called once per completed {!compile} with the
    worker name and the elapsed {!Lime_support.Clock} seconds; the clock
    is read only while one is installed.  The [lime.service] metrics layer
    uses key ["metrics"]. *)

type phase_event = [ `Begin | `End ]
(** A phase's begin and end carry no time: observers read their own
    clock, so the pipeline reads none. *)

val phase_hooks : (string * phase_event) Lime_support.Hooks.t
(** Phase observers, called with [(phase, `Begin)] and [(phase, `End)]
    around every pipeline phase of {!compile} ("compile" wrapping "lex",
    "parse", "typecheck", "lower", "extract", "simplify", "rewrite" —
    only when an {!optimizer} is supplied — "memopt", "codegen",
    "clcheck").  Phases nest: "compile" begins before and ends
    after all the others.  The observability-only "clcheck" phase only runs
    while at least one phase observer is installed, so the untraced path
    pays nothing for it.  The tracer uses key ["trace"]. *)

val compile :
  ?config:Memopt.config ->
  ?simplify:bool ->
  ?optimizer:optimizer ->
  ?name:string ->
  worker:string ->
  string ->
  compiled
(** [compile ~worker:"Class.method" source] runs the whole pipeline,
    offloading the given filter worker under [config] (default
    {!Memopt.config_all}).  [optimizer] (default none) runs between kernel
    simplification and memory placement as its own ["rewrite"] phase; its
    result is recorded in [cp_schedule].  Raises
    {!Lime_support.Diag.Error_exn} on any front-end or kernel-legality
    error. *)

val reoptimize : compiled -> Memopt.config -> compiled
(** Re-run only the memory optimizer and code generator under a different
    configuration (the Fig 8 sweep / autotuning building block).
    [cp_schedule] is preserved: it describes the structural rewrites baked
    into [cp_kernel], which reoptimization does not undo. *)

val reschedule :
  compiled -> schedule:string list -> Kernel.kernel -> Memopt.config -> compiled
(** Swap in an externally rewritten kernel (the output of a
    [lime.rewrite] search or replay), re-running memory placement and code
    generation on it.  [schedule] lands in [cp_schedule]. *)

val sweep : compiled -> (string * compiled) list
(** All eight Fig 8 configurations of an already compiled program. *)
