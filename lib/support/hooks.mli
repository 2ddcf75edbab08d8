(** Keyed observer registries.

    A registry holds the observers of one kind of event.  Observers with
    distinct keys compose (all are called per event); re-registering a key
    replaces that observer, so installation is idempotent.  Registration
    is mutex-guarded and may be called from any domain; {!emit} reads the
    current snapshot without locking, so an event source pays one load
    when nothing is installed. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> key:string -> ('a -> unit) -> unit
(** Register [f] under [key], replacing any observer already there. *)

val remove : 'a t -> string -> unit
(** Remove the observer registered under this key (no-op if absent). *)

val emit : 'a t -> 'a -> unit
(** Call every registered observer with the event, newest first. *)

val active : 'a t -> bool
(** At least one observer is registered. *)
