(** End-to-end compilation pipeline: Lime source → typed AST → IR →
    extracted kernel → memory placements → OpenCL source.

    This is the public entry point a downstream user of the library calls;
    the stages mirror Figure 3 of the paper. *)

module Ir = Lime_ir.Ir

type compiled = {
  cp_program : Lime_typecheck.Tast.tprogram;
  cp_module : Ir.modul;
  cp_kernel : Kernel.kernel;
  cp_decisions : Memopt.decision list;
  cp_opencl : string;
  cp_config : Memopt.config;
  cp_schedule : string list;
}

(* ------------------------------------------------------------------ *)
(* Observation hooks                                                   *)
(* ------------------------------------------------------------------ *)

module Hooks = Lime_support.Hooks
module Clock = Lime_support.Clock

let compile_hooks : (string * float) Hooks.t = Hooks.create ()

type phase_event = [ `Begin | `End ]

let phase_hooks : (string * phase_event) Hooks.t = Hooks.create ()

(** Run one named pipeline phase, notifying every phase observer of its
    begin and end (exception-safe: a diagnostic raised mid-phase still
    closes the phase).  With no observers installed this is just [f ()]. *)
let run_phase (phase : string) (f : unit -> 'a) : 'a =
  if not (Hooks.active phase_hooks) then f ()
  else begin
    Hooks.emit phase_hooks (phase, `Begin);
    Fun.protect ~finally:(fun () -> Hooks.emit phase_hooks (phase, `End)) f
  end

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(** Compile [source], offloading the filter whose worker is
    ["Class.method"], under the given optimization configuration.
    [simplify] (default on) runs constant folding and dead-code
    elimination over the extracted kernel. *)
let compile ?(config = Memopt.config_all) ?(simplify = true)
    ?(name = "<inline>") ~(worker : string) (source : string) : compiled =
  let t0 = if Hooks.active compile_hooks then Some (Clock.now_s ()) else None in
  run_phase "compile" (fun () ->
      let tokens =
        run_phase "lex" (fun () -> Lime_frontend.Lexer.tokenize ~name source)
      in
      let ast =
        run_phase "parse" (fun () ->
            Lime_frontend.Parser.program_of_tokens tokens)
      in
      let tp =
        run_phase "typecheck" (fun () ->
            Lime_typecheck.Check.check_program ast)
      in
      let md = run_phase "lower" (fun () -> Lime_ir.Lower.lower_program tp) in
      let kernel = run_phase "extract" (fun () -> Kernel.extract md ~worker) in
      let kernel =
        if simplify then run_phase "simplify" (fun () -> Simplify.kernel kernel)
        else kernel
      in
      let decisions =
        run_phase "memopt" (fun () -> Memopt.optimize config kernel)
      in
      let opencl =
        run_phase "codegen" (fun () -> Opencl.generate kernel decisions)
      in
      (* the validator exists for observability only: the untraced path
         skips it *)
      if Hooks.active phase_hooks then
        run_phase "clcheck" (fun () -> ignore (Clcheck.check opencl));
      Option.iter
        (fun t0 -> Hooks.emit compile_hooks (worker, Clock.now_s () -. t0))
        t0;
      {
        cp_program = tp;
        cp_module = md;
        cp_kernel = kernel;
        cp_decisions = decisions;
        cp_opencl = opencl;
        cp_config = config;
        cp_schedule = [];
      })

(** Re-optimize an already compiled program under a different memory
    configuration (used by the Fig 8 sweep and the autotuner). *)
let reoptimize (c : compiled) (config : Memopt.config) : compiled =
  let decisions = Memopt.optimize config c.cp_kernel in
  {
    c with
    cp_decisions = decisions;
    cp_opencl = Opencl.generate c.cp_kernel decisions;
    cp_config = config;
  }

(** All Fig 8 variants of a compiled program. *)
let sweep (c : compiled) : (string * compiled) list =
  List.map (fun (n, cfg) -> (n, reoptimize c cfg)) Memopt.fig8_configs

(** Swap in an externally rewritten kernel (from the [lime.rewrite]
    engine) and redo placement + codegen for it. *)
let reschedule (c : compiled) ~(schedule : string list)
    (kernel : Kernel.kernel) (config : Memopt.config) : compiled =
  (* affine-lane recognition on: reschedule only ever receives rewritten
     kernels, whose placements the search priced with it enabled *)
  let decisions = Memopt.optimize ~affine_lanes:true config kernel in
  {
    c with
    cp_kernel = kernel;
    cp_decisions = decisions;
    cp_opencl = Opencl.generate kernel decisions;
    cp_config = config;
    cp_schedule = schedule;
  }
