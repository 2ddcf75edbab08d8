(** File-backed store of autotuning results.

    Maps kernel digest × device to the best {!Gpusim.Autotune} entry found
    by a previous sweep, so a second run of the same kernel on the same
    device starts from the known-best memory configuration instead of
    re-timing all eight Fig 8 configurations.  A record can also carry the
    winning rewrite schedule of a beam search, so a warm compile replays
    the stored sequence instead of re-searching, or the multi-device
    placement chosen by {!Lime_sched.Search}, so a warm
    [--multi-device auto] run replays the stored placement.  One small
    text file per (digest, device) pair, in the one format documented in
    [doc/SERVICE.md]; a file with any other first line, or a malformed
    one, is treated as a miss. *)

(** Headline counters of the winning configuration — the *why* behind the
    stored best, shown by [limec --sweep]. *)
type headline = {
  th_occupancy : float;
  th_bank_replays : float;
  th_roofline : string;  (** {!Gpusim.Counters.roofline_name} of the winner *)
}

type record = {
  tr_config_name : string;  (** display name, e.g. ["Local+Conflicts removed"] *)
  tr_config : Lime_gpu.Memopt.config;
  tr_time_s : float;  (** modelled kernel time when the tuning was recorded *)
  tr_headline : headline option;
      (** [None] for records that carry no sweep winner (placement
          records) *)
  tr_sequence : string list option;
      (** winning rewrite schedule found by {!Lime_rewrite.Search} —
          [Some []] means a search ran and the baseline won; [None] means
          no search was recorded (plain Fig 8 sweeps) *)
  tr_placement : string option;
      (** winning multi-device placement ({!Lime_sched.Placement.to_spec})
          found by {!Lime_sched.Search} — [None] for records that are not
          placement records *)
}

type t

val open_ : string -> t
(** Open (creating if needed) a store rooted at the given directory. *)

val root : t -> string

val path : t -> digest:Digest.t -> device:string -> string
(** On-disk path for one entry (device names are sanitized for use in
    filenames). *)

val store : t -> digest:Digest.t -> device:string -> record -> unit
val load : t -> digest:Digest.t -> device:string -> record option

val cached_sweep :
  t ->
  Gpusim.Device.t ->
  digest:Digest.t ->
  device:string ->
  ?sweep:
    (Gpusim.Device.t ->
    Lime_gpu.Kernel.kernel ->
    shapes:(string * int array) list ->
    scalars:(string * float) list ->
    Gpusim.Autotune.entry list) ->
  Lime_gpu.Kernel.kernel ->
  shapes:(string * int array) list ->
  scalars:(string * float) list ->
  Gpusim.Autotune.entry list * [ `Hit of record | `Miss ]
(** The tunestore-aware version of {!Gpusim.Autotune.sweep}.  On a hit the
    stored best configuration is re-timed alone and returned as a single
    entry; on a miss all eight configurations are swept and the winner is
    persisted for next time.  [sweep] (default {!Gpusim.Autotune.sweep})
    overrides how a miss is swept — {!Service.sweep} supplies its
    pool-parallel variant. *)
