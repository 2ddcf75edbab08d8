(** A catalog of composable kernel-IR rewrites: structural loop
    restructurings ([tile:T], [interchange], [unroll], [fission],
    [fusion], [scalarize], [soa]) and placement toggles of one
    {!Lime_gpu.Memopt.config} flag ([local], [pad], [constant], [image],
    [vec]).  A structural step rewrites the {e first} site it can rewrite
    soundly, in depth-first program order, so a sequence of step names is
    a complete, replayable schedule.  The eight Fig 8 configurations are
    exactly the canned sequences of {!fig8_sequences}.  What each step
    does, and why it is sound, is set out in the implementation. *)

type state = {
  st_kernel : Lime_gpu.Kernel.kernel;
  st_config : Lime_gpu.Memopt.config;
}
(** A kernel under rewriting and the optimizer configuration its
    placement steps have built up. *)

val initial : ?config:Lime_gpu.Memopt.config -> Lime_gpu.Kernel.kernel -> state
(** The unrewritten kernel, under [config] (default
    {!Lime_gpu.Memopt.config_global}). *)

type kind =
  | Structural of {
      site : Lime_ir.Ir.stmt list -> bool;
          (** a candidate site of the step heads this statement list: the
              step's shape, before its soundness check.  A body with no
              such statement list has no site.  Only lists headed by a
              counted loop or an array declaration can be sites. *)
      attempt : from:int -> state -> (state, string) result;
          (** one walk to the first site, among the statements from the
              [from]th on in depth-first preorder ({!Lime_ir.Ir.iter_stmt}
              order, from 0), that can be rewritten soundly: the rewritten
              state, or why no site can.  It reads only the state's kernel
              and changes only the kernel's body.  From a body's first
              candidate site ({!first_sites}) it answers as from [0]. *)
    }
  | Placement of {
      get : Lime_gpu.Memopt.config -> bool;
      set : Lime_gpu.Memopt.config -> Lime_gpu.Memopt.config;
    }  (** toggle one optimizer flag; always sound *)

type step = { name : string; kind : kind }
(** A rewrite: its [name] (its serialization in the tunestore) and what
    it does. *)

val catalog : step list
(** Every step a search tries, in the fixed order it tries them:
    [tile:2], [tile:4], [tile:8], the other structural steps, then the
    placements. *)

val of_name : string -> step option
(** The catalog step of that name; [tile:T] for any [T >= 2]. *)

val apply_step : step -> state -> (state, string) result
(** Legality-checked application (the replay path): the error names the
    step and says why. *)

val apply_sequence : state -> string list -> (state, string) result
(** Apply named steps in order; an unknown name is an error. *)

val first_sites : step list -> Lime_ir.Ir.stmt list -> int array
(** [first_sites steps body] is one walk of [body]: for each of [steps],
    in order, the preorder number of the first statement that heads a
    candidate site of it ([site]), or [-1] when the body has none (and for
    a placement step).  A structural step with no site fails: its
    [attempt] answers [Error] without a walk of its own. *)

val sequence_to_string : string list -> string
val sequence_of_string : string -> string list

val fig8_sequences : (string * string list) list
(** The eight bars of Fig 8 as canned sequences over
    {!Lime_gpu.Memopt.config_global}, in the paper's order: applying each
    yields exactly the {!Lime_gpu.Memopt.fig8_configs} entry of that
    name. *)
