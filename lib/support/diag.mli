(** Compiler diagnostics: located, phase-tagged errors and warnings. *)

type severity = Error | Warning | Note

type phase =
  | Lexer
  | Parser
  | Typecheck
  | Lowering
  | Kernel  (** kernel identification / offload legality *)
  | Optimizer
  | Codegen
  | Runtime

type t = {
  severity : severity;
  phase : phase;
  loc : Loc.t;
  message : string;
}

exception Error_exn of t
(** Raised by {!error}; rendered by the registered exception printer. *)

val make :
  ?severity:severity ->
  phase:phase ->
  loc:Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val error : phase:phase -> loc:Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format a message and raise {!Error_exn}. *)

(** Collector for non-fatal diagnostics. *)
type collector

val collector : unit -> collector
val add : collector -> t -> unit
val items : collector -> t list

val warn :
  collector -> phase:phase -> loc:Loc.t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val protect : (unit -> 'a) -> ('a, t) result
(** Run a pipeline stage, catching {!Error_exn}. *)
