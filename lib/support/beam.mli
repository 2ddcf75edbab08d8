(** The beam search core shared by the rewrite-schedule search
    ([Lime_rewrite.Search]) and the multi-device placement search
    ([Lime_sched.Search]): one loop, one event type, one observer
    registry.  Callers own what an entry is, how it expands and how it is
    priced; nothing here knows which search is running. *)

val run :
  cmp:('a -> 'a -> int) ->
  width:int ->
  levels:int ->
  expand:(int -> 'a -> 'a list) ->
  ?on_level:(int -> 'a list -> 'a -> unit) ->
  best:'a ->
  'a list ->
  'a * int
(** [run ~cmp ~width ~levels ~expand ~best seeds] prunes [seeds] to the
    [width] least under [cmp] (at least one) and advances that frontier
    up to [levels] times.  Level [l] (from 1) pools [expand l e] over the
    frontier and keeps the [width] least children; a level with no
    children ends the search early.  [on_level l frontier best] runs after
    each level's pruning.  Returns the least entry seen — among [best],
    the seeds and every child, the earliest on ties — and the number of
    levels expanded. *)

(** What a search reports.  Args are span attributes, in order. *)
type event =
  | Begin of (string * string) list
  | Level of (string * string) list  (** after each beam level *)
  | End of {
      evals : int;  (** cost-model evaluations spent *)
      best_time_s : float;
      best : string * string;  (** the winner, as one attribute *)
      improved : bool;  (** the winner beat the search's baselines *)
      args : (string * string) list;
          (** what the search's work cost, beyond [evals] *)
    }
  | Replay of {
      args : (string * string) list;
      ok : bool;  (** the stored choice still applies *)
    }

val hooks : (string * event) Hooks.t
(** Search observers, called with the search's name (["rewrite"],
    ["sched"]) and the event: the [lime.service] metrics layer uses key
    ["metrics"], the tracer ["trace"]. *)

val emit : string -> event -> unit
(** [emit search ev] calls every observer with [(search, ev)]. *)

val observed : unit -> bool
(** Whether any observer is registered: a search builds its events, and
    times the pieces they report, only then. *)
