(* The rewrite engine (lib/rewrite): catalog naming, canned Fig 8
   sequences vs the Fig 8 configurations, beam search vs the sweep on the
   registry workloads, the search's work counts vs a memo-free reference,
   schedule replay, and the tunestore's schedule records. *)

module Rewrite = Lime_rewrite.Rewrite
module Search = Lime_rewrite.Search
module Memopt = Lime_gpu.Memopt
module Pipeline = Lime_gpu.Pipeline
module Kernel = Lime_gpu.Kernel
module Device = Gpusim.Device
module Engine = Lime_runtime.Engine
module Registry = Lime_benchmarks.Registry
module E = Lime_benchmarks.Experiments
module Tunestore = Lime_service.Tunestore
module Digest = Lime_service.Digest
module Service = Lime_service.Service
module B = Lime_benchmarks.Bench_def
module V = Lime_ir.Value

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A small nested-loop kernel every structural rewrite has a shot at. *)
let nest_source =
  {|
class Nest {
  static final int N = 8;
  static local float[[8]] row(float[[8][8]] a, int i) {
    float[] c = new float[8];
    for (int k = 0; k < N; k++) {
      for (int j = 0; j < N; j++) {
        c[j] = c[j] + (float) (i - k) * a[k][j];
      }
    }
    return { c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] };
  }
  static local float[[][8]] work(float[[8][8]] a) {
    return Nest.row(a) @ Lime.range(N);
  }
}
|}

let nest_kernel () =
  (Pipeline.compile ~worker:"Nest.work" nest_source).Pipeline.cp_kernel

(* a loop-free kernel: no structural rewrite applies *)
let flat_source =
  {|
class Flat {
  static local float twice(float x) { return x * 2.0f; }
  static local float[[]] work(float[[]] xs) { return Flat.twice @ xs; }
}
|}

let flat_kernel () =
  (Pipeline.compile ~worker:"Flat.work" flat_source).Pipeline.cp_kernel

(* ------------------------------------------------------------------ *)
(* Catalog and names                                                   *)
(* ------------------------------------------------------------------ *)

let test_catalog_names_roundtrip () =
  List.iter
    (fun (s : Rewrite.step) ->
      match Rewrite.of_name s.Rewrite.name with
      | Some s' ->
          Alcotest.(check string) "name round-trips" s.Rewrite.name
            s'.Rewrite.name
      | None -> Alcotest.failf "catalog step %s not found by name" s.name)
    Rewrite.catalog;
  Alcotest.(check bool) "parametric tile parses" true
    (match Rewrite.of_name "tile:16" with
    | Some s -> s.Rewrite.name = "tile:16"
    | None -> false);
  Alcotest.(check bool) "unknown name rejected" true
    (Rewrite.of_name "loopify" = None);
  Alcotest.(check bool) "degenerate tile rejected" true
    (Rewrite.of_name "tile:1" = None)

let test_sequence_string_roundtrip () =
  let seq = [ "local"; "pad"; "tile:4"; "interchange"; "vec" ] in
  Alcotest.(check (list string)) "round trip" seq
    (Rewrite.sequence_of_string (Rewrite.sequence_to_string seq));
  Alcotest.(check (list string)) "empty string is the empty schedule" []
    (Rewrite.sequence_of_string "")

(* ------------------------------------------------------------------ *)
(* Fig 8 sequences are the Fig 8 configurations                        *)
(* ------------------------------------------------------------------ *)

let test_fig8_sequences_match_configs () =
  let k = nest_kernel () in
  Alcotest.(check int) "eight sequences" 8 (List.length Rewrite.fig8_sequences);
  List.iter
    (fun (name, seq) ->
      let cfg =
        match List.assoc_opt name Memopt.fig8_configs with
        | Some c -> c
        | None -> Alcotest.failf "no Fig 8 configuration named %s" name
      in
      match Rewrite.apply_sequence (Rewrite.initial k) seq with
      | Error m -> Alcotest.failf "sequence %s rejected: %s" name m
      | Ok st ->
          Alcotest.(check bool)
            (name ^ " reaches its configuration")
            true
            (st.Rewrite.st_config = cfg);
          Alcotest.(check bool)
            (name ^ " leaves the kernel untouched")
            true
            (st.Rewrite.st_kernel = k))
    Rewrite.fig8_sequences

(* ------------------------------------------------------------------ *)
(* Rejection without miscompilation                                    *)
(* ------------------------------------------------------------------ *)

let test_illegal_applications_rejected () =
  let k = flat_kernel () in
  let st = Rewrite.initial k in
  List.iter
    (fun name ->
      match Rewrite.of_name name with
      | None -> Alcotest.failf "missing catalog step %s" name
      | Some step -> (
          match Rewrite.apply_step step st with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "%s applied to a loop-free kernel" name))
    [ "tile:2"; "interchange"; "unroll"; "fission" ];
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Rewrite.apply_sequence st [ "local"; "warp-shuffle" ] with
  | Error m ->
      Alcotest.(check bool) "unknown step named in the error" true
        (contains m "warp-shuffle")
  | Ok _ -> Alcotest.fail "unknown rewrite accepted"

(* ------------------------------------------------------------------ *)
(* Beam search: never worse than the Fig 8 sweep, strictly better on
   TMatMul (the ISSUE acceptance bar, on every Table 2 device)         *)
(* ------------------------------------------------------------------ *)

let test_beam_at_least_fig8_everywhere () =
  let devices = E.gpu_devices @ [ Device.core_i7 ] in
  List.iter
    (fun (d : Device.t) ->
      let rows = E.optimize_rows ~quick:true ~seed:1 d in
      Alcotest.(check int)
        ("all workloads searched on " ^ d.Device.name)
        (List.length Registry.workloads)
        (List.length rows);
      List.iter
        (fun (r : E.optimize_row) ->
          if r.E.op_beam_s > r.E.op_fig8_s +. 1e-15 then
            Alcotest.failf "%s on %s: beam %.3e s worse than fig8 %.3e s"
              r.E.op_bench d.Device.name r.E.op_beam_s r.E.op_fig8_s;
          if r.E.op_bench = "TMatMul" && r.E.op_beam_s >= r.E.op_fig8_s then
            Alcotest.failf
              "TMatMul on %s: beam %.3e s not strictly better than fig8 %.3e s"
              d.Device.name r.E.op_beam_s r.E.op_fig8_s)
        rows)
    devices

(* ------------------------------------------------------------------ *)
(* Golden search table: every registry kernel x device at paper scale
   (inputs from [Experiments.prepare ~seed:1], default width and depth).
   It pins the search's exact output, so any drift in dedup, in the
   placement filter or in a step's first-site walk shows up here as a
   changed evaluation count, sequence or time.                         *)
(* ------------------------------------------------------------------ *)

(* bench, device, so_evals, so_depth_reached, best sequence, %h of the
   best time, Fig 8 winner *)
let golden_search =
  [
    ("N-Body (Single)", "Intel Core i7-990X", 9, 1, "", "0x1.3bfcb426987c7p-5", "Global");
    ("N-Body (Single)", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.4567802071fd5p-8", "Constant");
    ("N-Body (Single)", "NVidia GeForce GTX 580", 9, 1, "", "0x1.b6244b7de003p-11", "Global");
    ("N-Body (Single)", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.2542d851b1735p-10", "Constant");
    ("N-Body (Double)", "Intel Core i7-990X", 9, 1, "", "0x1.25ed9001512c1p-4", "Global");
    ("N-Body (Double)", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.95bf6d09478f7p-5", "Constant");
    ("N-Body (Double)", "NVidia GeForce GTX 580", 9, 1, "", "0x1.b40b6c89c9455p-10", "Global");
    ("N-Body (Double)", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.b44e1dd5b3123p-10", "Constant");
    ("Mosaic", "Intel Core i7-990X", 116, 5, "", "0x1.afc7db90517fp-6", "Global");
    ("Mosaic", "NVidia GeForce GTX 8800", 150, 5, "local;pad", "0x1.2fb160b5a263bp-8", "Local+Conflicts removed");
    ("Mosaic", "NVidia GeForce GTX 580", 145, 5, "local;pad", "0x1.8ae2657d79db2p-11", "Local+Conflicts removed");
    ("Mosaic", "AMD Radeon HD 5970", 150, 5, "local;pad", "0x1.c549ecf4ed331p-10", "Local+Conflicts removed");
    ("Parboil-CP", "Intel Core i7-990X", 9, 1, "", "0x1.ba17d1e2a1347p+0", "Global");
    ("Parboil-CP", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.f144dec5bbe7dp-3", "Constant");
    ("Parboil-CP", "NVidia GeForce GTX 580", 9, 1, "", "0x1.3065e13d6a498p-5", "Global");
    ("Parboil-CP", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.84467949b287ep-5", "Constant");
    ("Parboil-MRIQ", "Intel Core i7-990X", 9, 1, "", "0x1.0771e7bcdf039p-2", "Global");
    ("Parboil-MRIQ", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.bbfa2b5fe50ffp-5", "Constant");
    ("Parboil-MRIQ", "NVidia GeForce GTX 580", 9, 1, "", "0x1.fd9ba1b1960fap-8", "Global");
    ("Parboil-MRIQ", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.07c2b54e627d6p-7", "Constant");
    ("Parboil-RPES", "Intel Core i7-990X", 116, 5, "unroll;unroll;unroll;unroll;unroll", "0x1.813ec7d03d5e9p-2", "Global");
    ("Parboil-RPES", "NVidia GeForce GTX 8800", 114, 5, "image;unroll;unroll;unroll;unroll;unroll", "0x1.61714bfc281cp-4", "Texture");
    ("Parboil-RPES", "NVidia GeForce GTX 580", 115, 5, "image;unroll;unroll;unroll;unroll;unroll", "0x1.8b4049b79d81cp-7", "Texture");
    ("Parboil-RPES", "AMD Radeon HD 5970", 114, 5, "image;unroll;unroll;unroll;unroll;unroll", "0x1.a69977d4c9df2p-7", "Texture");
    ("JG-Crypt", "Intel Core i7-990X", 34, 5, "unroll", "0x1.767ecf829d402p-6", "Global");
    ("JG-Crypt", "NVidia GeForce GTX 8800", 34, 5, "unroll", "0x1.1520361ea65b2p-8", "Global");
    ("JG-Crypt", "NVidia GeForce GTX 580", 34, 5, "unroll", "0x1.79fcb97ca66abp-11", "Global");
    ("JG-Crypt", "AMD Radeon HD 5970", 34, 5, "unroll", "0x1.82deb529d44d9p-10", "Global");
    ("JG-Series (Single)", "Intel Core i7-990X", 46, 5, "", "0x1.18d22c40c7bfp-5", "Global");
    ("JG-Series (Single)", "NVidia GeForce GTX 8800", 46, 5, "", "0x1.08f73585dbeep-7", "Global");
    ("JG-Series (Single)", "NVidia GeForce GTX 580", 46, 5, "", "0x1.30b5be2585302p-10", "Global");
    ("JG-Series (Single)", "AMD Radeon HD 5970", 46, 5, "", "0x1.3d4b3a8e7d9fp-10", "Global");
    ("JG-Series (Double)", "Intel Core i7-990X", 46, 5, "", "0x1.2a4370cd5586fp-4", "Global");
    ("JG-Series (Double)", "NVidia GeForce GTX 8800", 46, 5, "", "0x1.6f0270cd0af4fp-4", "Global");
    ("JG-Series (Double)", "NVidia GeForce GTX 580", 46, 5, "", "0x1.4263e100c2369p-9", "Global");
    ("JG-Series (Double)", "AMD Radeon HD 5970", 46, 5, "", "0x1.ea0347254395fp-10", "Global");
    ("TMatMul", "Intel Core i7-990X", 152, 5, "interchange", "0x1.6683bb5c19f6ap-10", "Global");
    ("TMatMul", "NVidia GeForce GTX 8800", 154, 5, "local;interchange", "0x1.6119277fd877p-12", "Local");
    ("TMatMul", "NVidia GeForce GTX 580", 149, 5, "interchange", "0x1.1cb3b4151dd3ep-15", "Local");
    ("TMatMul", "AMD Radeon HD 5970", 154, 5, "local;interchange", "0x1.22dce8f7af9e1p-13", "Local");
    ("N-Body Pipe", "Intel Core i7-990X", 9, 1, "", "0x1.3bfcb426987c7p-5", "Global");
    ("N-Body Pipe", "NVidia GeForce GTX 8800", 9, 1, "constant", "0x1.4567802071fd5p-8", "Constant");
    ("N-Body Pipe", "NVidia GeForce GTX 580", 9, 1, "", "0x1.b6244b7de003p-11", "Global");
    ("N-Body Pipe", "AMD Radeon HD 5970", 9, 1, "constant", "0x1.2542d851b1735p-10", "Constant");
  ]

let test_golden_search_table () =
  let row = ref golden_search in
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare ~seed:1 b in
      let k = p.E.p_compiled.Pipeline.cp_kernel in
      List.iter
        (fun (d : Device.t) ->
          let o =
            Search.search d k ~shapes:p.E.p_shapes ~scalars:p.E.p_scalars
          in
          let got =
            ( b.B.name,
              d.Device.name,
              o.Search.so_evals,
              o.Search.so_depth_reached,
              Rewrite.sequence_to_string o.Search.so_best.Search.sc_sequence,
              Printf.sprintf "%h" o.Search.so_best.Search.sc_time_s,
              fst o.Search.so_fig8_best )
          in
          match !row with
          | want :: rest ->
              row := rest;
              let name, dev, evals, depth, seq, time, fig8 = want in
              let what = Printf.sprintf "%s on %s" name dev in
              let name', dev', evals', depth', seq', time', fig8' = got in
              Alcotest.(check (pair string string)) "row" (name, dev)
                (name', dev');
              Alcotest.(check int) (what ^ ": evaluations") evals evals';
              Alcotest.(check int) (what ^ ": depth") depth depth';
              Alcotest.(check string) (what ^ ": best sequence") seq seq';
              Alcotest.(check string) (what ^ ": best time") time time';
              Alcotest.(check string) (what ^ ": fig8 winner") fig8 fig8'
          | [] -> Alcotest.failf "no golden row for %s" b.B.name)
        Device.all)
    Registry.workloads;
  Alcotest.(check int) "every golden row checked" 0 (List.length !row)

(* ------------------------------------------------------------------ *)
(* Memoized child construction: a search attempts each structural step
   once per (parent body, step) and analyzes each body once.  The
   reference below is the search without its memo tables — every
   expanded entry re-attempts every structural step and launches every
   state it prices — and counts the distinct bodies it reaches, the
   distinct (body, step) pairs it attempts, and the distinct states it
   prices with the time of each; the search's End event must report
   exactly those.                                                     *)
(* ------------------------------------------------------------------ *)

(* a body's digest, marshalled without sharing so equal structures give
   equal bytes *)
let body_digest (st : Rewrite.state) =
  Stdlib.Digest.string
    (Marshal.to_string st.Rewrite.st_kernel.Kernel.k_body
       [ Marshal.No_sharing ])

(* a state's dedup key: its body digest and placement table *)
type signature =
  Stdlib.Digest.t * (string * Lime_ir.Ir.placement * string) list

type work = {
  evals : int;
  attempts : int;
  pairs : (Stdlib.Digest.t * string, unit) Hashtbl.t;
  bodies : (Stdlib.Digest.t, Kernel.kernel) Hashtbl.t;
  signatures :
    (signature, Rewrite.state * Memopt.decision list * float) Hashtbl.t;
}

let signature digest (ds : Memopt.decision list) : signature =
  ( digest,
    List.map
      (fun (d : Memopt.decision) ->
        (d.Memopt.d_array, d.Memopt.d_placement, d.Memopt.d_reason))
      ds )

(* The memo-free reference pieces, from public APIs: what a state's body
   determines whatever its configuration — its thread-dependence table
   and its memory analysis with affine lanes on — and a state's modeled
   time from its own launch, with the backend effects the rewrites rely
   on (invariant hoisting, affine lanes). *)
type body = {
  b_thread_vars : (string, unit) Hashtbl.t;
  b_analysis : Memopt.array_info list;
}

let body_of (st : Rewrite.state) : body =
  let k = st.Rewrite.st_kernel in
  let thread_vars = Lime_gpu.Taint.thread_dependent k.Kernel.k_body in
  {
    b_thread_vars = thread_vars;
    b_analysis = Memopt.analyze ~affine_lanes:true ~thread_vars k;
  }

let decisions (st : Rewrite.state) (b : body) : Memopt.decision list =
  Memopt.decide_all st.Rewrite.st_config b.b_analysis

let score (d : Device.t) (st : Rewrite.state) (b : body)
    (ds : Memopt.decision list) ~shapes ~scalars : float =
  let prof, bindings =
    Gpusim.Autotune.launch ~hoist_invariant:true ~affine_lanes:true
      ~thread_vars:b.b_thread_vars st.Rewrite.st_kernel ds ~shapes ~scalars
  in
  (Gpusim.Model.kernel_time d prof bindings).Gpusim.Model.bd_total_s

(* The memo-free replay: apply the whole sequence, then launch its
   state. *)
let reference_replay (d : Device.t) (k : Kernel.kernel) (seq : string list)
    ~shapes ~scalars : (Search.candidate, string) result =
  Result.map
    (fun st ->
      let b = body_of st in
      {
        Search.sc_sequence = seq;
        sc_state = st;
        sc_time_s = score d st b (decisions st b) ~shapes ~scalars;
      })
    (Rewrite.apply_sequence (Rewrite.initial k) seq)

let unmemoized_work (d : Device.t) (k : Kernel.kernel) ~shapes ~scalars : work
    =
  let evals = ref 0 and attempts = ref 0 in
  let pairs = Hashtbl.create 64 and bodies = Hashtbl.create 16 in
  let signatures = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let fresh digest ds =
    let s = signature digest ds in
    (not (Hashtbl.mem seen s)) && (Hashtbl.add seen s (); true)
  in
  (* sequence, state, body, digest, decisions, modeled time *)
  let evaluate seq st body digest ds =
    incr evals;
    let time = score d st body ds ~shapes ~scalars in
    Hashtbl.replace signatures (signature digest ds) (st, ds, time);
    (seq, st, body, digest, ds, time)
  in
  let st0 = Rewrite.initial k in
  let body0 = body_of st0 and digest0 = body_digest st0 in
  Hashtbl.replace bodies digest0 k;
  let ds0 = decisions st0 body0 in
  ignore (fresh digest0 ds0);
  let base = evaluate [] st0 body0 digest0 ds0 in
  let seeds =
    List.filter_map
      (fun (_, seq) ->
        if seq = [] then Some base
        else
          match Rewrite.apply_sequence st0 seq with
          | Error _ -> None
          | Ok st ->
              let ds = decisions st body0 in
              ignore (fresh digest0 ds);
              Some (evaluate seq st body0 digest0 ds))
      Rewrite.fig8_sequences
  in
  let expand _ (seq, st, body, digest, ds, _) =
    List.filter_map
      (fun (step : Rewrite.step) ->
        let child st' body' digest' ds' =
          if fresh digest' ds' then
            Some (evaluate (seq @ [ step.Rewrite.name ]) st' body' digest' ds')
          else None
        in
        match step.Rewrite.kind with
        | Rewrite.Placement { get; set } ->
            let cfg = st.Rewrite.st_config in
            if get cfg then None
            else
              let st' = { st with Rewrite.st_config = set cfg } in
              let ds' = decisions st' body in
              if Memopt.placements ds' = Memopt.placements ds then None
              else child st' body digest ds'
        | Rewrite.Structural { attempt; _ } -> (
            incr attempts;
            Hashtbl.replace pairs (digest, step.Rewrite.name) ();
            match attempt ~from:0 st with
            | Error _ -> None
            | Ok st' ->
                let body' = body_of st' in
                let digest' = body_digest st' in
                Hashtbl.replace bodies digest' st'.Rewrite.st_kernel;
                child st' body' digest' (decisions st' body')))
      Rewrite.catalog
  in
  let cmp (sa, _, _, _, _, ta) (sb, _, _, _, _, tb) =
    compare (ta, List.length sa, sa) (tb, List.length sb, sb)
  in
  ignore
    (Lime_support.Beam.run ~cmp ~width:Search.default_width
       ~levels:Search.default_depth ~expand ~best:base (base :: seeds));
  { evals = !evals; attempts = !attempts; pairs; bodies; signatures }

(* A search's outcome and its own account of its work, from its End
   event: evals, then the named counters (the wall times, which no test
   can pin, left out). *)
let search_end ?memo (d : Device.t) (k : Kernel.kernel) ~shapes ~scalars =
  let got = ref None in
  Lime_support.Hooks.add Lime_support.Beam.hooks ~key:"test_rewrite"
    (function
    | "rewrite", Lime_support.Beam.End e ->
        got :=
          Some
            ( e.evals,
              List.filter_map
                (fun (n, v) ->
                  if String.ends_with ~suffix:"_ms" n then None
                  else Some (n, int_of_string v))
                e.args )
    | _ -> ());
  let o =
    Fun.protect
      ~finally:(fun () ->
        Lime_support.Hooks.remove Lime_support.Beam.hooks "test_rewrite")
      (fun () -> Search.search ?memo d k ~shapes ~scalars)
  in
  (o, Option.get !got)

(* The memoized search's work: evals, then attempts, attempt hits and
   analyses. *)
let search_work (d : Device.t) (k : Kernel.kernel) ~shapes ~scalars =
  let _, (evals, args) = search_end d k ~shapes ~scalars in
  let arg name = List.assoc name args in
  (evals, arg "attempts", arg "attempt_hits", arg "analyses")

let test_search_work_once_per_body () =
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare ~seed:1 b in
      let k = p.E.p_compiled.Pipeline.cp_kernel in
      let shapes = p.E.p_shapes and scalars = p.E.p_scalars in
      List.iter
        (fun (d : Device.t) ->
          let what = Printf.sprintf "%s on %s" b.B.name d.Device.name in
          let want = unmemoized_work d k ~shapes ~scalars in
          let evals, attempts, hits, analyses =
            search_work d k ~shapes ~scalars
          in
          Alcotest.(check int) (what ^ ": evaluations") want.evals evals;
          Alcotest.(check int)
            (what ^ ": one attempt per (body, step)")
            (Hashtbl.length want.pairs) attempts;
          Alcotest.(check int)
            (what ^ ": every other attempt a hit")
            (want.attempts - Hashtbl.length want.pairs)
            hits;
          Alcotest.(check int)
            (what ^ ": one analysis per body")
            (Hashtbl.length want.bodies) analyses)
        Device.all)
    Registry.workloads

let test_mosaic_gtx580_work () =
  match Registry.find "Mosaic" with
  | None -> Alcotest.fail "Mosaic missing from the registry"
  | Some b ->
      let p = E.prepare ~seed:1 b in
      let work =
        search_work Device.gtx580 p.E.p_compiled.Pipeline.cp_kernel
          ~shapes:p.E.p_shapes ~scalars:p.E.p_scalars
      in
      Alcotest.(check (list int))
        "evals, attempts, attempt hits, analyses" [ 145; 144; 216; 51 ]
        (let e, a, h, n = work in
         [ e; a; h; n ])

(* ------------------------------------------------------------------ *)
(* One memo across a kernel's searches: the four device searches of a
   kernel share one memo and reach the outcomes of four fresh searches,
   while their walks, analyses and launches add up to the distinct
   (body, step) pairs, bodies and states of the four memo-free
   reference searches.                                                *)
(* ------------------------------------------------------------------ *)

let state_md5 (c : Search.candidate) =
  Stdlib.Digest.to_hex
    (Stdlib.Digest.string
       (Marshal.to_string c.Search.sc_state [ Marshal.No_sharing ]))

let check_same_outcome what (want : Search.outcome) (got : Search.outcome) =
  Alcotest.(check string)
    (what ^ ": best sequence")
    (Search.seq_str want.Search.so_best.Search.sc_sequence)
    (Search.seq_str got.Search.so_best.Search.sc_sequence);
  Alcotest.(check string)
    (what ^ ": best time")
    (Printf.sprintf "%h" want.Search.so_best.Search.sc_time_s)
    (Printf.sprintf "%h" got.Search.so_best.Search.sc_time_s);
  Alcotest.(check string)
    (what ^ ": best state")
    (state_md5 want.Search.so_best)
    (state_md5 got.Search.so_best);
  Alcotest.(check int) (what ^ ": evaluations") want.Search.so_evals
    got.Search.so_evals;
  Alcotest.(check int) (what ^ ": depth") want.Search.so_depth_reached
    got.Search.so_depth_reached

let test_shared_memo_equals_fresh () =
  (* one memo for the whole registry, as the service keeps it: each
     kernel's first search finds the previous kernel's work *)
  let memo = Search.create_memo () in
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare ~seed:1 b in
      let k = p.E.p_compiled.Pipeline.cp_kernel in
      let shapes = p.E.p_shapes and scalars = p.E.p_scalars in
      let pairs = Hashtbl.create 64 and bodies = Hashtbl.create 16 in
      let signatures = Hashtbl.create 64 in
      let attempts = ref 0 and analyses = ref 0 and launches = ref 0 in
      let profiled = ref 0 in
      List.iteri
        (fun i (d : Device.t) ->
          let what = Printf.sprintf "%s on %s" b.B.name d.Device.name in
          let fresh = Search.search d k ~shapes ~scalars in
          let shared, (_, args) = search_end ~memo d k ~shapes ~scalars in
          check_same_outcome what fresh shared;
          if i = 0 then
            Alcotest.(check int) (what ^ ": first search, empty memo") 0
              (List.assoc "memo_bodies" args);
          attempts := !attempts + List.assoc "attempts" args;
          analyses := !analyses + List.assoc "analyses" args;
          launches := !launches + List.assoc "launches" args;
          profiled := !profiled + List.assoc "profiles" args;
          let want = unmemoized_work d k ~shapes ~scalars in
          (* a price the table holds, from its body's one launch walk
             under the state's private arrays, is the state's own
             launch, bit for bit *)
          Hashtbl.iter
            (fun _ (st, ds, time) ->
              Alcotest.(check (option string))
                (what ^ ": table price = fresh launch")
                (Some (Printf.sprintf "%h" time))
                (Option.map (Printf.sprintf "%h")
                   (Search.memo_time memo d st ds)))
            want.signatures;
          Hashtbl.iter (Hashtbl.replace pairs) want.pairs;
          Hashtbl.iter (Hashtbl.replace bodies) want.bodies;
          Hashtbl.iter (Hashtbl.replace signatures) want.signatures)
        Device.all;
      Alcotest.(check int)
        (b.B.name ^ ": one attempt per (body, step) over the devices")
        (Hashtbl.length pairs) !attempts;
      Alcotest.(check int)
        (b.B.name ^ ": one analysis per body over the devices")
        (Hashtbl.length bodies) !analyses;
      Alcotest.(check int)
        (b.B.name ^ ": one launch per state over the devices")
        (Hashtbl.length signatures) !launches;
      Alcotest.(check int)
        (b.B.name ^ ": one launch walk per body over the devices")
        (Hashtbl.length bodies) !profiled)
    Registry.workloads

(* The memo is keyed by the whole kernel: a kernel with the same body
   but one more parameter empties it, and so does the way back. *)
let test_memo_keyed_by_kernel () =
  let k = nest_kernel () in
  let spare_param = ("spare", Lime_ir.Ir.TScalar Lime_ir.Ir.SInt) in
  let k' = { k with Kernel.k_params = k.Kernel.k_params @ [ spare_param ] } in
  let shapes = [ ("a", [| 8; 8 |]) ] in
  (* the bodies the memo held, and the walks the search ran *)
  let search ?memo k scalars =
    let _, (_, args) = search_end ?memo Device.gtx580 k ~shapes ~scalars in
    (List.assoc "memo_bodies" args, List.assoc "attempts" args)
  in
  let memo = Search.create_memo () in
  let held = search ~memo and spare = [ ("spare", 0.0) ] in
  let bodies, _ = held k [] in
  Alcotest.(check int) "fresh memo holds nothing" 0 bodies;
  let bodies, attempts = held k [] in
  Alcotest.(check bool) "same kernel: the bodies carry over" true (bodies > 0);
  Alcotest.(check int) "same kernel: no walk repeated" 0 attempts;
  let bodies, attempts = held k' spare in
  Alcotest.(check int) "equal body, other params: memo emptied" 0 bodies;
  let _, want = search k' spare in
  Alcotest.(check bool) "the nest has structural walks" true (want > 0);
  Alcotest.(check int) "equal body, other params: every walk redone" want
    attempts;
  let bodies, _ = held k [] in
  Alcotest.(check int) "back to the first kernel: memo emptied" 0 bodies

(* The prices hang on the launch's shapes and scalars as well as on the
   state: a search of the same kernel with other shapes or scalars
   prices every state again but walks nothing again, and a device that
   is not one of [Device.all] is priced on its own parameters.          *)

let pow_source =
  {|
class Pow {
  static local float f(int n, float x) {
    float s = x;
    for (int i = 0; i < n; i++) { s = s * x + 1.0f; }
    return s;
  }
  static local float[[]] work(float[[]] xs, int n) { return Pow.f(n) @ xs; }
}
|}

let test_price_key_and_foreign_device () =
  let arg name (_, (_, args)) = List.assoc name args in
  (* search [k] once with [memo], then again with [memo] under other
     shapes or scalars, against a fresh search under those *)
  let reprice what (k : Kernel.kernel) ~shapes ~scalars ~shapes' ~scalars' =
    let memo = Search.create_memo () in
    ignore (search_end ~memo Device.gtx580 k ~shapes ~scalars);
    let fresh = search_end Device.gtx580 k ~shapes:shapes' ~scalars:scalars' in
    let shared =
      search_end ~memo Device.gtx580 k ~shapes:shapes' ~scalars:scalars'
    in
    check_same_outcome what (fst fresh) (fst shared);
    Alcotest.(check int)
      (what ^ ": no walk repeated")
      0 (arg "attempts" shared);
    Alcotest.(check int)
      (what ^ ": every state priced again")
      (arg "launches" fresh) (arg "launches" shared)
  in
  let mosaic =
    match Registry.find "Mosaic" with
    | Some b -> b
    | None -> Alcotest.fail "Mosaic missing from the registry"
  in
  let p = E.prepare ~seed:1 mosaic in
  let k = p.E.p_compiled.Pipeline.cp_kernel in
  let shapes = p.E.p_shapes and scalars = p.E.p_scalars in
  let small, _ = Engine.shapes_of_args k [ mosaic.B.input_small () ] in
  Alcotest.(check bool) "the small input has other shapes" false
    (small = shapes);
  reprice "Mosaic, other shapes" k ~shapes ~scalars ~shapes':small
    ~scalars':scalars;
  let pow =
    (Pipeline.compile ~worker:"Pow.work" pow_source).Pipeline.cp_kernel
  in
  let xs = [ ("xs", [| 4096 |]) ] in
  reprice "Pow, other scalars" pow ~shapes:xs
    ~scalars:[ ("n", 2.0) ]
    ~shapes':xs
    ~scalars':[ ("n", 64.0) ];
  (* a GTX 580 with a faster clock: not one of [Device.all] *)
  let fast =
    let d = Device.gtx580 in
    { d with Device.clock_ghz = 2.0 *. d.Device.clock_ghz }
  in
  let memo = Search.create_memo () in
  let gtx580 = search_end ~memo Device.gtx580 k ~shapes ~scalars in
  let fresh = Search.search fast k ~shapes ~scalars in
  let shared = search_end ~memo fast k ~shapes ~scalars in
  Alcotest.(check bool) "the clock changes the best time" false
    ((fst gtx580).Search.so_best.Search.sc_time_s
    = fresh.Search.so_best.Search.sc_time_s);
  check_same_outcome "faster GTX 580" fresh (fst shared);
  Alcotest.(check int) "faster GTX 580: every evaluation launched"
    (fst shared).Search.so_evals (arg "launches" shared)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let tmatmul () =
  match Registry.find "TMatMul" with
  | Some b -> b
  | None -> Alcotest.fail "TMatMul missing from the registry"

let test_replay_reproduces_search_best () =
  let b = tmatmul () in
  let k = (Registry.compile_small b).Pipeline.cp_kernel in
  let shapes, scalars = Engine.shapes_of_args k [ b.B.input_small () ] in
  let d = Device.gtx580 in
  let o = Search.search ~width:4 ~depth:3 d k ~shapes ~scalars in
  Alcotest.(check bool) "search beats the canned sequences" true
    (o.Search.so_best.Search.sc_time_s
    <= (snd o.Search.so_fig8_best).Search.sc_time_s);
  match Search.replay d k o.Search.so_best.Search.sc_sequence ~shapes ~scalars with
  | Error m -> Alcotest.failf "winning schedule failed to replay: %s" m
  | Ok c ->
      Alcotest.(check (float 0.0)) "replay reproduces the searched time"
        o.Search.so_best.Search.sc_time_s c.Search.sc_time_s

let test_replay_rejects_stale_schedule () =
  let b = tmatmul () in
  let k = (Registry.compile_small b).Pipeline.cp_kernel in
  let shapes, scalars = Engine.shapes_of_args k [ b.B.input_small () ] in
  match Search.replay Device.gtx580 k [ "warp-shuffle" ] ~shapes ~scalars with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus stored schedule replayed"

(* Every replay equals the memo-free reference replay: the same
   candidate, the same time bit for bit, the same error for a sequence
   that does not apply — whether it is handed the memo of the kernel's
   searches, no memo, or the memo of another kernel.  Only a replay with
   the kernel's memo of a sequence the searches priced (each search's
   winner and best Fig 8 sequence) reads it alone; an unknown step, a
   step without a site and a tile step outside the catalog are applied.
   A replay handed another kernel's memo leaves it as it was: the same
   size, and a search of that kernel after it does the same work.      *)
let check_same_replay what (want : (Search.candidate, string) result) got =
  match (want, got) with
  | Ok (want : Search.candidate), Ok (got : Search.candidate) ->
      Alcotest.(check (list string))
        (what ^ ": sequence") want.Search.sc_sequence got.Search.sc_sequence;
      Alcotest.(check int64)
        (what ^ ": time, bit for bit")
        (Int64.bits_of_float want.Search.sc_time_s)
        (Int64.bits_of_float got.Search.sc_time_s);
      Alcotest.(check string) (what ^ ": state") (state_md5 want)
        (state_md5 got)
  | Error want, Error got -> Alcotest.(check string) (what ^ ": error") want got
  | _ -> Alcotest.failf "%s: replays disagree" what

let test_replay_reads_memo () =
  let from_memo = ref 0 in
  Lime_support.Hooks.add Lime_support.Beam.hooks ~key:"test_replay_memo"
    (function
    | "rewrite", Lime_support.Beam.Replay { args; _ } ->
        if List.assoc_opt "from" args = Some "memo" then incr from_memo
    | _ -> ());
  (* the size of a memo, its lazy site tables settled first *)
  let words memo =
    Gc.full_major ();
    Obj.reachable_words (Obj.repr memo)
  in
  (* the work counts of one more search of a kernel whose memo holds its
     searches *)
  let research memo (k : Kernel.kernel) ~shapes ~scalars =
    snd (snd (search_end ~memo (List.hd Device.all) k ~shapes ~scalars))
  in
  Fun.protect
    ~finally:(fun () ->
      Lime_support.Hooks.remove Lime_support.Beam.hooks "test_replay_memo")
    (fun () ->
      let other = ref None in
      List.iter
        (fun (b : B.t) ->
          let p = E.prepare ~seed:1 b in
          let k = p.E.p_compiled.Pipeline.cp_kernel in
          let shapes = p.E.p_shapes and scalars = p.E.p_scalars in
          let memo = Search.create_memo () in
          let outcomes =
            List.map
              (fun d -> (d, Search.search ~memo d k ~shapes ~scalars))
              Device.all
          in
          let other_words = Option.map (fun (m, _, _) -> words m) !other in
          List.iter
            (fun ((d : Device.t), (o : Search.outcome)) ->
              let replay what seq ~hit =
                let what =
                  Printf.sprintf "%s on %s, %s" b.B.name d.Device.name what
                in
                let want = reference_replay d k seq ~shapes ~scalars in
                let check how ?memo ~hit () =
                  let before = !from_memo in
                  let got = Search.replay ?memo d k seq ~shapes ~scalars in
                  Alcotest.(check bool)
                    (what ^ ", " ^ how ^ ": read from the memo alone")
                    hit (!from_memo > before);
                  check_same_replay (what ^ ", " ^ how) want got
                in
                check "kernel's memo" ~memo ~hit ();
                check "no memo" ~hit:false ();
                Option.iter
                  (fun (m, _, _) ->
                    check "other kernel's memo" ~memo:m ~hit:false ())
                  !other
              in
              replay "winner" o.Search.so_best.Search.sc_sequence ~hit:true;
              replay "best Fig 8"
                (snd o.Search.so_fig8_best).Search.sc_sequence ~hit:true;
              replay "unknown step" [ "warp-shuffle" ] ~hit:false;
              replay "step without a site" [ "scalarize" ] ~hit:false;
              replay "tile outside the catalog" [ "tile:16" ] ~hit:false)
            outcomes;
          Option.iter
            (fun (m, research_other, counts) ->
              Alcotest.(check (option int))
                (b.B.name ^ ": the other kernel's memo keeps its size")
                other_words
                (Some (words m));
              Alcotest.(check (list (pair string int)))
                (b.B.name ^ ": the other kernel's next search, same work")
                counts (research_other ()))
            !other;
          let research () = research memo k ~shapes ~scalars in
          other := Some (memo, research, research ()))
        Registry.workloads)

(* The site walk: over every body a registry search reaches, a
   structural step the walk finds no site for fails when attempted, and
   one it finds a site for rewrites from that site as from the top.   *)
let test_site_walk_sound () =
  let structural =
    List.filter_map
      (fun (s : Rewrite.step) ->
        match s.Rewrite.kind with
        | Rewrite.Structural { attempt; _ } -> Some (s.Rewrite.name, attempt)
        | Rewrite.Placement _ -> None)
      Rewrite.catalog
  in
  let steps =
    List.filter
      (fun (s : Rewrite.step) ->
        match s.Rewrite.kind with
        | Rewrite.Structural _ -> true
        | Rewrite.Placement _ -> false)
      Rewrite.catalog
  in
  let result = function
    | Ok (st : Rewrite.state) ->
        "ok " ^ Stdlib.Digest.to_hex (body_digest st)
    | Error m -> "error " ^ m
  in
  let absent = ref 0 and present = ref 0 in
  List.iter
    (fun (b : B.t) ->
      let p = E.prepare ~seed:1 b in
      let k = p.E.p_compiled.Pipeline.cp_kernel in
      let shapes = p.E.p_shapes and scalars = p.E.p_scalars in
      let bodies = Hashtbl.create 64 in
      List.iter
        (fun d ->
          Hashtbl.iter (Hashtbl.replace bodies)
            (unmemoized_work d k ~shapes ~scalars).bodies)
        Device.all;
      Hashtbl.iter
        (fun _ (k : Kernel.kernel) ->
          let st = Rewrite.initial k in
          let sites = Rewrite.first_sites steps k.Kernel.k_body in
          List.iteri
            (fun i (name, attempt) ->
              let what = Printf.sprintf "%s, %s" b.B.name name in
              if sites.(i) < 0 then begin
                incr absent;
                Alcotest.(check bool) (what ^ ": no site, no rewrite") true
                  (Result.is_error (attempt ~from:0 st))
              end
              else begin
                incr present;
                Alcotest.(check string)
                  (what ^ ": from the site = from the top")
                  (result (attempt ~from:0 st))
                  (result (attempt ~from:sites.(i) st))
              end)
            structural)
        bodies)
    Registry.workloads;
  Alcotest.(check bool) "the registry has steps with and without sites" true
    (!absent > 0 && !present > 0)

(* ------------------------------------------------------------------ *)
(* The fig8 optimizer strategy is byte-identical to the plain sweep    *)
(* ------------------------------------------------------------------ *)

let test_reoptimize_matches_fresh_compile () =
  let c = Pipeline.compile ~worker:"Nest.work" nest_source in
  List.iter
    (fun (name, cfg) ->
      let rebuilt = Pipeline.reoptimize c cfg in
      let fresh = Pipeline.compile ~config:cfg ~worker:"Nest.work" nest_source in
      Alcotest.(check string)
        (name ^ " reoptimize = fresh compile")
        fresh.Pipeline.cp_opencl rebuilt.Pipeline.cp_opencl;
      Alcotest.(check (list string))
        (name ^ " schedule stays empty")
        [] rebuilt.Pipeline.cp_schedule)
    Memopt.fig8_configs

let test_reschedule_records_schedule () =
  let c = Pipeline.compile ~worker:"Nest.work" nest_source in
  let st = Rewrite.initial c.Pipeline.cp_kernel in
  match Rewrite.apply_sequence st [ "local"; "pad" ] with
  | Error m -> Alcotest.failf "local;pad rejected: %s" m
  | Ok st ->
      let r =
        Pipeline.reschedule c ~schedule:[ "local"; "pad" ]
          st.Rewrite.st_kernel st.Rewrite.st_config
      in
      Alcotest.(check (list string)) "schedule recorded" [ "local"; "pad" ]
        r.Pipeline.cp_schedule;
      Alcotest.(check bool) "config swapped in" true
        (r.Pipeline.cp_config = Memopt.config_local_noconflict)

(* ------------------------------------------------------------------ *)
(* Tunestore format 3                                                  *)
(* ------------------------------------------------------------------ *)

let record ?(sequence = None) () =
  {
    Tunestore.tr_config_name = "beam";
    tr_config = Memopt.config_local_noconflict;
    tr_time_s = 1.25e-4;
    tr_sequence = sequence;
    tr_placement = None;
  }

let test_tunestore_v3_sequence_roundtrip () =
  let dir = temp_dir "lime_ts_v3" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ts = Tunestore.open_ dir in
      let digest = Digest.of_request ~worker:"W" "src" in
      let seq = [ "local"; "pad"; "tile:4"; "interchange" ] in
      Tunestore.store ts ~digest ~device:"gtx580.beam"
        (record ~sequence:(Some seq) ());
      (match Tunestore.load ts ~digest ~device:"gtx580.beam" with
      | Some r ->
          Alcotest.(check bool) "sequence round-trips" true
            (r.Tunestore.tr_sequence = Some seq)
      | None -> Alcotest.fail "stored record did not load");
      (* the searched-but-baseline-won marker survives as Some [] *)
      Tunestore.store ts ~digest ~device:"hd5970.beam"
        (record ~sequence:(Some []) ());
      (match Tunestore.load ts ~digest ~device:"hd5970.beam" with
      | Some r ->
          Alcotest.(check bool) "empty schedule distinct from no schedule"
            true
            (r.Tunestore.tr_sequence = Some [])
      | None -> Alcotest.fail "baseline record did not load");
      (* a file in an older format is a miss, so the schedule is
         searched again *)
      Out_channel.with_open_text
        (Tunestore.path ts ~digest ~device:"gtx8800")
        (fun oc ->
          Printf.fprintf oc
            "lime-tunestore 2\nname Local\nconfig %s\ntime_s 2.5e-4\n"
            (Digest.canonical_config Memopt.config_local));
      Alcotest.(check bool) "format-2 file is a miss" true
        (Tunestore.load ts ~digest ~device:"gtx8800" = None))

(* ------------------------------------------------------------------ *)
(* Service: cold search, warm replay                                   *)
(* ------------------------------------------------------------------ *)

let test_beam_schedule_warm_replay () =
  let dir = temp_dir "lime_beam_svc" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = Service.create ~cache_dir:dir () in
      let b = tmatmul () in
      let k = (Registry.compile_small b).Pipeline.cp_kernel in
      let shapes, scalars = Engine.shapes_of_args k [ b.B.input_small () ] in
      let digest = Digest.of_request ~worker:b.B.worker b.B.source_small in
      let d = Device.gtx580 in
      let run () =
        Service.beam_schedule svc d ~device_key:"gtx580" ~digest ~width:4
          ~depth:3 k ~shapes ~scalars
      in
      let best_cold, prov_cold = run () in
      (match prov_cold with
      | `Searched _ -> ()
      | `Replayed -> Alcotest.fail "cold call claimed a stored schedule");
      let best_warm, prov_warm = run () in
      (match prov_warm with
      | `Replayed -> ()
      | `Searched _ -> Alcotest.fail "warm call re-searched");
      Alcotest.(check (float 0.0)) "warm replay reproduces the cold time"
        best_cold.Search.sc_time_s best_warm.Search.sc_time_s;
      Alcotest.(check bool) "same schedule" true
        (best_cold.Search.sc_sequence = best_warm.Search.sc_sequence);
      Service.shutdown svc)

let () =
  Alcotest.run "rewrite"
    [
      ( "catalog",
        [
          Alcotest.test_case "names round-trip" `Quick
            test_catalog_names_roundtrip;
          Alcotest.test_case "sequence strings" `Quick
            test_sequence_string_roundtrip;
          Alcotest.test_case "illegal applications rejected" `Quick
            test_illegal_applications_rejected;
        ] );
      ( "fig8",
        [
          Alcotest.test_case "sequences = configurations" `Quick
            test_fig8_sequences_match_configs;
          Alcotest.test_case "reoptimize = fresh compile" `Quick
            test_reoptimize_matches_fresh_compile;
          Alcotest.test_case "reschedule records the schedule" `Quick
            test_reschedule_records_schedule;
        ] );
      ( "search",
        [
          Alcotest.test_case "beam >= fig8 on every workload/device" `Slow
            test_beam_at_least_fig8_everywhere;
          Alcotest.test_case "golden table, registry x devices" `Slow
            test_golden_search_table;
          Alcotest.test_case "once per (body, step) and per body" `Slow
            test_search_work_once_per_body;
          Alcotest.test_case "Mosaic on GTX 580 work" `Quick
            test_mosaic_gtx580_work;
          Alcotest.test_case "shared memo = fresh searches" `Slow
            test_shared_memo_equals_fresh;
          Alcotest.test_case "price key, foreign device"
            `Quick test_price_key_and_foreign_device;
          Alcotest.test_case "memo keyed by kernel, not body" `Quick
            test_memo_keyed_by_kernel;
          Alcotest.test_case "replay reproduces the best" `Quick
            test_replay_reproduces_search_best;
          Alcotest.test_case "stale schedule rejected" `Quick
            test_replay_rejects_stale_schedule;
          Alcotest.test_case "replay reads the memo" `Slow
            test_replay_reads_memo;
          Alcotest.test_case "site walk: absent fails, present = top" `Slow
            test_site_walk_sound;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "tunestore v3 round trip" `Quick
            test_tunestore_v3_sequence_roundtrip;
          Alcotest.test_case "service warm replay" `Quick
            test_beam_schedule_warm_replay;
        ] );
    ]
