(* Shared machinery of the wall-clock benchmark: one monotonic clock,
   sample vectors and order statistics, the traced run's span and count
   recorder, output checks, and process helpers.

   Every timing in the benchmark reads [now] (CLOCK_MONOTONIC through
   bechamel's stub); nothing reads process CPU time or the wall-of-day
   clock. *)

type opts = {
  seed : int;
  seconds : float;  (** measured window of the run *)
  scratch : string;  (** private per-run directory inside the checkout *)
  limec : string;  (** the daemon binary, for the serve workload *)
}

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ns_since t0)

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 16 0.0; n = 0 }

  let add v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
  let sum v = Array.fold_left ( +. ) 0.0 (to_array v)

  let sorted v =
    let s = to_array v in
    Array.sort Float.compare s;
    s
end

(* nearest-rank quantile of a sorted array *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median_of v = quantile (Fvec.sorted v) 0.5

(* how many of [n] samples lie beyond their nearest-rank [q] quantile *)
let beyond q n = n - int_of_float (Float.ceil (q *. float n))

(* ------------------------------------------------------------------ *)
(* Traced run: spans and counts recorded around the calls into layers  *)
(* ------------------------------------------------------------------ *)

let tracing = ref false
let by_name : (string, Fvec.t) Hashtbl.t = Hashtbl.create 64

let record name ns =
  let v =
    match Hashtbl.find_opt by_name name with
    | Some v -> v
    | None ->
        let v = Fvec.create () in
        Hashtbl.replace by_name name v;
        v
  in
  Fvec.add v ns

(* [span name f] runs [f]; while tracing it also records its duration
   under [name]. *)
let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record name (ns_since t0)) f
  end

(* durations (ns) of every recorded span of this name *)
let durations name =
  match Hashtbl.find_opt by_name name with Some v -> v | None -> Fvec.create ()

let median_span_us name = median_of (durations name) /. 1e3
let median_span_ms name = median_of (durations name) /. 1e6

(* ------------------------------------------------------------------ *)
(* Ops, failures and checks                                            *)
(* ------------------------------------------------------------------ *)

(* Per-pass op accounting: the op latencies in op order, and [busy_ns],
   the time the pass spent in its ops (the wall time of the request
   stream when requests overlap). *)
type tally = {
  lat_ms : Fvec.t;
  mutable attempted : int;
  mutable failed : int;
  mutable busy_ns : float;
}

let tally () = { lat_ms = Fvec.create (); attempted = 0; failed = 0; busy_ns = 0.0 }
let reported = ref 0

let complain fmt =
  Printf.ksprintf
    (fun msg ->
      incr reported;
      if !reported <= 20 then prerr_endline ("perfbench: " ^ msg))
    fmt

(* Count one op: [ok] is the verdict of its output check. *)
let op_done t ~ns ~ok ~what =
  t.attempted <- t.attempted + 1;
  Fvec.add t.lat_ms (ns /. 1e6);
  if not ok then begin
    t.failed <- t.failed + 1;
    complain "output check failed: %s" what
  end

(* A failure outside any op (daemon hygiene, set-up invariants). *)
let faults = ref 0

let fault msg =
  incr faults;
  complain "%s" msg

let op_failed t ~what exn =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  complain "%s raised %s" what (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let prng seed salt = Lime_support.Prng.create ((seed * 1_000_003) lxor salt)

let split_worker w =
  match String.index_opt w '.' with
  | Some i -> (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
  | None -> invalid_arg ("not a Class.method worker: " ^ w)

(* [count] generated programs whose source size lies in [lo, hi] bytes,
   drawn in order from the seeded corpus: (name, last worker, source) *)
let gen_programs ~seed ~lo ~hi count =
  let picked =
    Lime_fuzz.Gen.corpus ~seed 400
    |> List.filter_map (fun p ->
           let src = Lime_fuzz.Gen.to_source p in
           let n = String.length src in
           if n < lo || n > hi then None
           else Some (List.hd (List.rev (Lime_fuzz.Gen.workers p)), src))
    |> List.filteri (fun i _ -> i < count)
    |> List.mapi (fun i (w, src) -> (Printf.sprintf "gen#%d" i, w, src))
  in
  if List.length picked < count then
    failwith (Printf.sprintf "seed %d draws fewer than %d generated programs of %d-%d bytes" seed count lo hi);
  picked

(* zipf(s) sampler over ranks [0, n), inverse-cdf over the shared Prng *)
let zipf ~s n rng =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  fun () ->
    let x = Lime_support.Prng.float01 rng *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x < cdf.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

(* ------------------------------------------------------------------ *)
(* Process helpers                                                     *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process, in MiB *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun l ->
         if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
             (fun kb -> Some (float kb /. 1024.0))
         else None)
  |> Option.value ~default:Float.nan

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun opts prefix ->
    incr n;
    let d = Filename.concat opts.scratch (Printf.sprintf "%s-%d" prefix !n) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One workload.  [pass] runs one pass of ops into the tally — the same
   ops in the same order every time; while
   [!tracing] it records spans and returns the named counts of the pass,
   which must repeat exactly on the next traced pass over the same plan.
   [layer_metrics] summarises every traced pass so far. *)
module type WORKLOAD = sig
  type plan

  val tail_q : float
  (** the quantile [tail_ms] reports: fixed, so that every run reports
      the same one, and with at least ten samples beyond it *)

  val setup : opts -> plan
  val pass : opts -> plan -> tally -> (string * int) list
  val layer_metrics : plan -> (string * float * string) list
  val peak_rss_mb : plan -> float
  val teardown : plan -> unit
end
