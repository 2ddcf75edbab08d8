(** Versioned machine-readable benchmark results: the `BENCH_<name>.json`
    files emitted by `bench/main.exe --json` and diffed by `--baseline`.

    The schema (documented in [doc/SERVICE.md]) is one object with run
    metadata — schema name, version, run name, quick flag, input seed —
    and one result entry per benchmark × device: modelled end-to-end
    time, kernel-leg time, speedup vs. the JVM bytecode baseline, and the
    headline simulated hardware counters (occupancy, bank-conflict
    replays, arithmetic intensity, roofline class).  [to_json] writes the
    layout by hand with {!Lime_support.Json.escape}; [of_json] reads it
    with {!Lime_support.Json.parse} and accepts any file up to the current
    [schema_version]. *)

val schema_name : string
val schema_version : int

type entry = {
  e_bench : string;
  e_device : string;
  e_time_s : float;  (** modelled end-to-end seconds per firing *)
  e_kernel_s : float;  (** kernel leg only *)
  e_speedup : float;  (** vs the JVM bytecode baseline *)
  e_occupancy : float;
  e_bank_replays : float;
  e_intensity : float;  (** arithmetic intensity flop/byte; -1 when infinite *)
  e_roofline : string;
}

type run = {
  r_name : string;
  r_quick : bool;
  r_seed : int;
  r_entries : entry list;
}

val devices : Gpusim.Device.t list
(** The per-device columns of a run: the three GPUs plus the Core i7. *)

val collect :
  ?quick:bool -> ?seed:int -> ?multidev:bool -> name:string -> unit -> run
(** Run the whole registry on every built-in device and collect one entry
    per pair.  [quick] uses the test-scale programs and inputs; [seed]
    feeds the deterministic input builders (default 1).  [multidev]
    (default false — it probes and searches every pipeline, which costs
    seconds) appends one {!Experiments.multidev_rows} entry per pipelined
    workload under the pseudo-device ["multi-device"]: time is the placed
    makespan per firing, speedup is vs the best single device, and the
    roofline slot records the search mode. *)

val to_json : run -> string
val of_json : string -> (run, string) result
(** The run [to_json] wrote, or why [text] is not one; a malformed
    document's error names its byte offset. *)

val read_file : string -> (run, string) result
val write_file : string -> run -> unit

type regression = {
  rg_bench : string;
  rg_device : string;
  rg_kind : [ `Slower of float | `Missing ];
      (** [`Slower ratio]: current/baseline time ratio beyond threshold *)
}

val diff :
  ?threshold:float -> baseline:run -> current:run -> unit -> regression list
(** Entries of [baseline] that regressed in [current]: slower than
    [1 + threshold] (default 0.10) times the baseline time, or missing
    from the current run entirely.  Entries new in [current] are not
    regressions. *)

val render_regression : regression -> string
