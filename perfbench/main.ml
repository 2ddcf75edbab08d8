(* perfbench — the wall-clock benchmark of the Lime toolchain.

     main.exe --workload compile|serve|run|tune --seed N --seconds S --trace 0|1

   Run from the root of a source checkout (perfbench/run.sh builds and
   starts it).  With --trace 0 it sets the workload up nine times, makes
   one untimed warm-up pass, then measures whole passes for S seconds and
   prints the end-to-end metrics.  With --trace 1 it records spans around
   the calls into each layer and prints the per-layer metrics of every
   workload: the named one alternates untraced and traced passes for S
   seconds (their ratio is the tracing overhead), the others make two
   traced passes each.  Every named count must repeat exactly between
   traced passes; one that does not is reported instead of published.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Bench

let workloads : (string * (module WORKLOAD)) list =
  [ ("compile", (module Compile_wl)); ("serve", (module Serve_wl));
    ("run", (module Run_wl)); ("tune", (module Tune_wl)) ]

let setup_repeats = 9

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** in print order *)
  mutable notes : string list;  (** human-readable lines *)
  mutable unrepeated : string list;  (** counts that differed between passes *)
}

let absorb out (t : tally) =
  out.attempted <- out.attempted + t.attempted;
  out.failed <- out.failed + t.failed

(* --trace 0: end-to-end metrics of one workload.  Every pass makes the
   same ops in the same order, so each op position has one sample per
   pass.  The machine is shared, and other tenants slow whole seconds of
   it at a time, so every end-to-end time comes from the fastest
   twentieth of each position's samples: a fixed share, however many
   passes fit in the window.  A twentieth spread less between runs than a
   tenth on tune and no more on compile; at 30 s it still leaves run at
   least ten samples beyond its tail quantile.  [ops_per_s] is the kept
   samples' count over their summed time, the throughput of a pass made
   of each op's kept repetitions.  It is not taken from whole passes:
   other tenants' bursts land in nearly every pass, even the fastest
   ones, while single ops dodge them.  Collection counts where it falls
   in kept samples; the allocation behind it is the per-layer
   [minor_words].  The window is stretched (to at most twice its length)
   until [tail_q] has ten kept samples beyond it. *)
let keep_share = 0.05
let kept_of passes = int_of_float (Float.ceil (keep_share *. float passes))

let measure (module W : WORKLOAD) o out =
  let setups = Fvec.create () in
  let rec prepare i =
    (* so that no set-up pays for collecting the previous one's garbage *)
    Gc.full_major ();
    let plan, ns = timed (fun () -> W.setup o) in
    Fvec.add setups (ns /. 1e9);
    if i < setup_repeats then begin
      W.teardown plan;
      prepare (i + 1)
    end
    else plan
  in
  let plan = prepare 1 in
  Fun.protect
    ~finally:(fun () -> W.teardown plan)
    (fun () ->
      let warm = tally () in
      ignore (W.pass o plan warm);
      absorb out warm;
      let passes = ref [] and busy = Fvec.create () in
      let enough () =
        match !passes with
        | [] -> false
        | p :: _ -> beyond W.tail_q (Array.length p * kept_of (List.length !passes)) >= 10
      in
      let t0 = now () in
      while
        ns_since t0 < o.seconds *. 1e9
        || ((not (enough ())) && (!passes = [] || ns_since t0 < 2.0 *. o.seconds *. 1e9))
      do
        let t = tally () in
        ignore (W.pass o plan t);
        absorb out t;
        Fvec.add busy t.busy_ns;
        passes := Fvec.to_array t.lat_ms :: !passes
      done;
      let passes = Array.of_list !passes in
      let width = Array.fold_left (fun m l -> min m (Array.length l)) max_int passes in
      let kept = kept_of (Array.length passes) in
      let lat = Fvec.create () in
      for j = 0 to width - 1 do
        let col = Array.map (fun l -> l.(j)) passes in
        Array.sort Float.compare col;
        Array.iter (Fvec.add lat) (Array.sub col 0 kept)
      done;
      let s = Fvec.sorted lat in
      let n = Array.length s in
      let pass_ns = quantile (Fvec.sorted busy) keep_share in
      let kept_ms = Array.fold_left ( +. ) 0.0 s in
      if beyond W.tail_q n < 10 then
        complain "tail_ms: only %d samples beyond p%g" (beyond W.tail_q n) (100.0 *. W.tail_q);
      out.metrics <-
        [ ("ops_per_s", float n /. (kept_ms /. 1e3), "1/s");
          ("p50_ms", quantile s 0.5, "ms");
          ("tail_ms", quantile s W.tail_q, "ms");
          ("setup_s", median_of setups, "s");
          ("peak_rss_mb", W.peak_rss_mb plan, "MiB") ];
      out.notes <-
        [ Printf.sprintf "measured: %d passes of %d ops; latencies from the fastest %d samples of each op"
            (Array.length passes) width kept;
          Printf.sprintf "ops_per_s: %d kept samples over their %.4f ms (the p%g pass: %d ops in %.4f ms)"
            n kept_ms (100.0 *. keep_share) width (pass_ns /. 1e6);
          Printf.sprintf "tail_ms is p%g of %d samples (%d beyond it)" (100.0 *. W.tail_q) n
            (beyond W.tail_q n);
          (let s = Fvec.sorted setups in
           Printf.sprintf "setup_s is the median of %d set-ups (%.4f to %.4f s)" setup_repeats
             s.(0) s.(Array.length s - 1));
          Printf.sprintf "fail_ratio %d/%d = %g" out.failed out.attempted
            (float out.failed /. float (max 1 out.attempted)) ])

(* Compare the counts of successive traced passes; publish the ones that
   repeat exactly. *)
let guard out passes =
  match passes with
  | [] -> []
  | first :: rest ->
      List.filter
        (fun (name, v) ->
          let same = List.for_all (fun p -> List.assoc_opt name p = Some v) rest in
          if not same then begin
            out.unrepeated <- name :: out.unrepeated;
            complain "count %s does not repeat across passes on one seed: %s" name
              (String.concat " vs "
                 (List.map
                    (fun p ->
                      Option.fold ~none:"-" ~some:string_of_int (List.assoc_opt name p))
                    passes))
          end;
          same)
        first

(* --trace 1: per-layer metrics of every workload, the named one first *)
let trace_all named o out =
  let untraced = Fvec.create () and traced = Fvec.create () in
  let sections =
    List.map
      (fun (name, (module W : WORKLOAD)) ->
        let plan = W.setup o in
        Fun.protect ~finally:(fun () -> W.teardown plan) (fun () ->
            let t = tally () in
            let traced_pass () =
              tracing := true;
              let b0 = t.busy_ns in
              let c = Fun.protect ~finally:(fun () -> tracing := false) (fun () -> W.pass o plan t) in
              if name = named then Fvec.add traced (t.busy_ns -. b0);
              c
            in
            let counts =
              if name <> named then [ traced_pass (); traced_pass () ]
              else begin
                ignore (W.pass o plan t);
                let t0 = now () and passes = ref [] in
                while ns_since t0 < o.seconds *. 1e9 || List.length !passes < 2 do
                  let b0 = t.busy_ns in
                  ignore (W.pass o plan t);
                  Fvec.add untraced (t.busy_ns -. b0);
                  passes := traced_pass () :: !passes
                done;
                List.rev !passes
              end
            in
            absorb out t;
            let published = guard out counts in
            W.layer_metrics plan @ List.map (fun (n, v) -> (n, float v, "count")) published))
      (List.filter (fun (n, _) -> n = named) workloads
      @ List.filter (fun (n, _) -> n <> named) workloads)
  in
  let slowdown = median_of traced /. median_of untraced in
  out.metrics <- List.concat sections @ [ ("trace.slowdown", slowdown, "x") ];
  out.notes <-
    [ Printf.sprintf "tracing overhead on %s: traced/untraced pass time = %.4f (%d + %d passes)"
        named slowdown (Fvec.length traced) (Fvec.length untraced);
      Printf.sprintf "fail_ratio %d/%d = %g" out.failed out.attempted
        (float out.failed /. float (max 1 out.attempted)) ]

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result out =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) out.metrics in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then complain "metric %s has no samples" n)
    out.metrics;
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %14.6g %s\n" n v u) out.metrics;
  List.iter print_endline out.notes;
  let correct = out.failed = 0 && !faults = 0 && out.unrepeated = [] && finite in
  let metric (n, v, u) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
      (json_number (if Float.is_finite v then v else 0.0))
      u
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 out.attempted)
    (out.failed + !faults)
    (String.concat ", " (List.map metric out.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let limec = ref "_build/default/bin/limec.exe" and expected = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME compile, serve, run or tune");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--limec", Arg.Set_string limec, "PATH the limec binary serve starts as the daemon");
      ("--print-expected", Arg.Set expected,
       " print the OpenCL digests the compile workload checks against") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !expected then begin
    Compile_wl.print_expected ();
    exit 0
  end;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (compile, serve, run, tune)\n" !workload;
        exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = ".perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let scratch = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let o = { seed = !seed; seconds = !seconds; scratch; limec = !limec } in
  let out = { attempted = 0; failed = 0; metrics = []; notes = []; unrepeated = [] } in
  let status =
    Fun.protect
      ~finally:(fun () -> rm_rf scratch)
      (fun () ->
        try
          if !trace = 0 then measure w o out else trace_all !workload o out;
          0
        with e ->
          Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
          1)
  in
  if status <> 0 then exit status;
  print_result out
