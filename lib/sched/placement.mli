(** Placement IR: the per-task device assignment the multi-device
    scheduler decides and the engine executes.  The textual form ([SPEC])
    is a comma-separated list of [task=device] pairs over the short device
    names below plus [host]; it round-trips through the tunestore and the
    [--multi-device] flag. *)

type assignment = Host | On of Gpusim.Device.t

val devices : (string * Gpusim.Device.t) list
(** Short CLI names for the simulated devices, in Table 2 order. *)

val short_name : Gpusim.Device.t -> string

type t = (string * assignment) list
(** Task name → assignment, in pipeline order. *)

val equal : t -> t -> bool

val to_engine : t -> (string * Gpusim.Device.t option) list
(** The assignment list the engine consumes ([None] = host). *)

val to_spec : t -> string

val of_spec : string -> (t, string) result
(** Parse a [task=device,...] SPEC.  Task validity (existence,
    offloadability) is checked later against the probed pipeline; this
    only checks the grammar and device names. *)

