(* Differential testing of the rewrite catalog (QCheck): generate random
   well-typed loop-nest kernels, run each catalog step (and short random
   schedules) through the legality-checked replay path, and require that
   every accepted rewrite preserves the interpreter's results while every
   rejected one fails loudly instead of miscompiling; and require that the
   beam search's winners are what the replay path builds.

   Structural rewrites must be exact (same f32 operations in the same
   order); interchange reassociates the accumulation, so schedules that
   include it are compared under a small relative tolerance. *)

module Rewrite = Lime_rewrite.Rewrite
module Search = Lime_rewrite.Search
module Device = Gpusim.Device
module Engine = Lime_runtime.Engine
module Pipeline = Lime_gpu.Pipeline
module Kernel = Lime_gpu.Kernel
module Interp = Lime_ir.Interp
module Ir = Lime_ir.Ir
module V = Lime_ir.Value

let qsuite = Testutil.qsuite

(* ------------------------------------------------------------------ *)
(* Random kernel descriptions                                          *)
(* ------------------------------------------------------------------ *)

(** Which template: a perfect 2-deep nest over an array accumulator
    (tile/interchange/unroll sites), a flat reduction loop, a pair of
    independent accumulators (fission/fusion sites), or a constant-indexed
    value array (scalarize site). *)
type kind = Nest | Flat | Indep | Scal

type desc = {
  kind : kind;
  jn : int;  (** outer trip count *)
  kn : int;  (** inner trip count (and accumulator width) *)
  threads : int;  (** parallel range *)
  second_loop : bool;  (** trailing scale loop after the main one *)
  coef : int;  (** small exact coefficient *)
}

let desc_gen =
  QCheck.Gen.(
    map
      (fun ((kind, jn, kn), (threads, second_loop, coef)) ->
        { kind; jn; kn; threads; second_loop; coef })
      (pair
         (triple
            (oneofl [ Nest; Flat; Indep; Scal ])
            (int_range 2 6) (int_range 2 6))
         (triple (int_range 2 4) bool (int_range 1 5))))

(* The nested template is a miniature TMatMul: a per-thread value-array
   accumulator updated in a j/k nest, so tile, interchange, unroll,
   fission/fusion, scalarize and the placement steps all have sites. *)
let nested_source d =
  let ret =
    String.concat ", " (List.init d.kn (fun k -> Printf.sprintf "c[%d]" k))
  in
  let tail =
    if d.second_loop then
      Printf.sprintf
        "    for (int t = 0; t < %d; t++) { c[t] = c[t] * 0.5f; }\n" d.kn
    else ""
  in
  Printf.sprintf
    {|class Gen {
  static local float[[%d]] f(float[[%d][%d]] a, int i) {
    float[] c = new float[%d];
    for (int j = 0; j < %d; j++) {
      for (int k = 0; k < %d; k++) {
        c[k] = c[k] + (float) (i + %d) * a[j][k];
      }
    }
%s    return { %s };
  }
  static local float[[][%d]] work(float[[%d][%d]] a) {
    return Gen.f(a) @ Lime.range(%d);
  }
}|}
    d.kn d.jn d.kn d.kn d.jn d.kn d.coef tail ret d.kn d.jn d.kn d.threads

(* The flat template reduces a row into a scalar: a single sequential
   loop (tile/unroll/fission sites) without the array accumulator. *)
let flat_source d =
  let tail =
    if d.second_loop then
      Printf.sprintf "    for (int t = 0; t < %d; t++) { s = s + 0.25f; }\n"
        d.jn
    else ""
  in
  Printf.sprintf
    {|class Gen {
  static local float f(float[[%d]] a, int i) {
    float s = 0.0f;
    for (int j = 0; j < %d; j++) {
      s = s + a[j] * (float) %d + (float) i;
    }
%s    return s;
  }
  static local float[[]] work(float[[%d]] a) {
    return Gen.f(a) @ Lime.range(%d);
  }
}|}
    d.jn d.jn d.coef tail d.jn d.threads

(* Two accumulators with disjoint footprints: the loop body splits
   (fission), and the two trailing same-bound loops merge (fusion). *)
let indep_source d =
  Printf.sprintf
    {|class Gen {
  static local float f(float[[%d]] a, int i) {
    float s = 0.0f;
    float u = 0.0f;
    for (int j = 0; j < %d; j++) {
      s = s + (float) (j + %d) * 0.5f;
      u = u + (float) (j * 2 - i);
    }
    for (int t = 0; t < %d; t++) {
      s = s + a[t];
    }
    for (int t2 = 0; t2 < %d; t2++) {
      u = u + 0.25f;
    }
    return s + u;
  }
  static local float[[]] work(float[[%d]] a) {
    return Gen.f(a) @ Lime.range(%d);
  }
}|}
    d.jn d.jn d.coef d.jn d.jn d.jn d.threads

(* A small value array accessed only at constant indices: the scalarize
   candidate shape. *)
let scal_source d =
  Printf.sprintf
    {|class Gen {
  static local float f(float[[%d]] a, int i) {
    float[] c = new float[2];
    for (int j = 0; j < %d; j++) {
      c[0] = c[0] + a[j] * (float) %d;
      c[1] = c[1] + a[j] * 0.5f + (float) i;
    }
    return c[0] - c[1];
  }
  static local float[[]] work(float[[%d]] a) {
    return Gen.f(a) @ Lime.range(%d);
  }
}|}
    d.jn d.jn d.coef d.jn d.threads

let source_of d =
  match d.kind with
  | Nest -> nested_source d
  | Flat -> flat_source d
  | Indep -> indep_source d
  | Scal -> scal_source d

let print_desc d = "generated program:\n" ^ source_of d
let desc_arb = QCheck.make ~print:print_desc desc_gen

(* deterministic input: exact small multiples of 0.25, so structural
   rewrites that preserve operation order compare bit-for-bit *)
let input_of d : V.t =
  let fill n = Array.init n (fun i -> float_of_int ((i mod 13) - 6) *. 0.25) in
  match d.kind with
  | Nest ->
      let a = V.make_arr Ir.SFloat [| d.jn; d.kn |] in
      Array.iteri
        (fun i x -> V.store a [ i / d.kn; i mod d.kn ] (V.VFloat x))
        (fill (d.jn * d.kn));
      V.VArr a
  | Flat | Indep | Scal -> V.VArr (V.of_float_array (fill d.jn))

let run_kernel (k : Kernel.kernel) (input : V.t) : V.t =
  let st = Interp.create (Kernel.to_module k) in
  Interp.call_function st k.Kernel.k_name None [ input ]

let compile d : Kernel.kernel =
  match
    Lime_support.Diag.protect (fun () ->
        Pipeline.compile ~worker:"Gen.work" (source_of d))
  with
  | Ok c -> c.Pipeline.cp_kernel
  | Error diag ->
      QCheck.Test.fail_reportf "generated program rejected: %s\n---\n%s"
        (Lime_support.Diag.to_string diag)
        (source_of d)

let equal_under ~exact a b =
  if exact then V.approx_equal ~rtol:0.0 ~atol:0.0 a b
  else V.approx_equal ~rtol:2e-4 ~atol:1e-6 a b

(* interchange (and anything sequenced after it) reassociates the
   accumulation; everything else must be bit-exact *)
let order_preserving name = name <> "interchange"

(* ------------------------------------------------------------------ *)
(* Property 1: every catalog step, applied alone, is sound             *)
(* ------------------------------------------------------------------ *)

let prop_catalog_steps_sound =
  QCheck.Test.make ~name:"each accepted catalog step preserves results"
    ~count:25 desc_arb (fun d ->
      let k = compile d in
      let input = input_of d in
      let want = run_kernel k input in
      let st = Rewrite.initial k in
      List.iter
        (fun (step : Rewrite.step) ->
          match Rewrite.apply_step step st with
          | Error _ -> () (* rejected, which is always sound *)
          | Ok st' ->
              let got = run_kernel st'.Rewrite.st_kernel input in
              if not (equal_under ~exact:(order_preserving step.Rewrite.name)
                        want got)
              then
                QCheck.Test.fail_reportf
                  "%s miscompiled the kernel\n---\n%s" step.Rewrite.name
                  (source_of d))
        Rewrite.catalog;
      true)

(* ------------------------------------------------------------------ *)
(* Property 2: short random schedules compose soundly                  *)
(* ------------------------------------------------------------------ *)

let names = List.map (fun (s : Rewrite.step) -> s.Rewrite.name) Rewrite.catalog

let schedule_gen =
  QCheck.Gen.(list_size (int_range 1 4) (oneofl names))

let prop_random_schedules_sound =
  QCheck.Test.make ~name:"accepted random schedules preserve results"
    ~count:60
    (QCheck.make
       ~print:(fun (d, seq) ->
         print_desc d ^ "\nschedule: " ^ Rewrite.sequence_to_string seq)
       QCheck.Gen.(pair desc_gen schedule_gen))
    (fun (d, seq) ->
      let k = compile d in
      let input = input_of d in
      match Rewrite.apply_sequence (Rewrite.initial k) seq with
      | Error _ -> true (* some prefix was rejected: sound *)
      | Ok st ->
          let want = run_kernel k input in
          let got = run_kernel st.Rewrite.st_kernel input in
          let exact = List.for_all order_preserving seq in
          if not (equal_under ~exact want got) then
            QCheck.Test.fail_reportf
              "schedule %s miscompiled the kernel\n---\n%s"
              (Rewrite.sequence_to_string seq)
              (source_of d)
          else true)

(* ------------------------------------------------------------------ *)
(* Property 3: the beam's children are what replay builds — the search
   derives each child with the same step functions the replay path runs,
   so every winner replays to the same kernel, configuration and time   *)
(* ------------------------------------------------------------------ *)

let prop_search_winners_replay =
  QCheck.Test.make ~name:"search winners replay to the same state" ~count:25
    desc_arb (fun d ->
      let k = compile d in
      let shapes, scalars = Engine.shapes_of_args k [ input_of d ] in
      List.iter
        (fun (dev : Device.t) ->
          let o = Search.search ~width:4 ~depth:3 dev k ~shapes ~scalars in
          let best = o.Search.so_best in
          let seq = Rewrite.sequence_to_string best.Search.sc_sequence in
          match
            Search.replay dev k best.Search.sc_sequence ~shapes ~scalars
          with
          | Error m ->
              QCheck.Test.fail_reportf "winner %s on %s did not replay: %s"
                seq dev.Device.name m
          | Ok c ->
              let st = c.Search.sc_state and st0 = best.Search.sc_state in
              if c.Search.sc_time_s <> best.Search.sc_time_s then
                QCheck.Test.fail_reportf "winner %s on %s: replay %h s, search %h s"
                  seq dev.Device.name c.Search.sc_time_s best.Search.sc_time_s;
              if
                st.Rewrite.st_kernel.Kernel.k_body
                <> st0.Rewrite.st_kernel.Kernel.k_body
              then
                QCheck.Test.fail_reportf "winner %s on %s: replay built another body"
                  seq dev.Device.name;
              if st.Rewrite.st_config <> st0.Rewrite.st_config then
                QCheck.Test.fail_reportf
                  "winner %s on %s: replay reached another configuration" seq
                  dev.Device.name)
        Device.all;
      true)

(* A structural step with no site anywhere is refused by name. *)
let test_no_site_is_named () =
  let d =
    { kind = Flat; jn = 3; kn = 2; threads = 2; second_loop = false; coef = 1 }
  in
  let st = Rewrite.initial (compile d) in
  List.iter
    (fun name ->
      match Option.map (fun s -> Rewrite.apply_step s st) (Rewrite.of_name name) with
      | Some (Error m) ->
          Alcotest.(check string) (name ^ " error") (name ^ ": no matching site") m
      | Some (Ok _) -> Alcotest.failf "%s applied without a site" name
      | None -> Alcotest.failf "missing catalog step %s" name)
    [ "tile:2"; "interchange"; "fusion"; "scalarize"; "soa" ]

let () =
  Alcotest.run "rewrite-legality"
    [
      qsuite "differential"
        [
          prop_catalog_steps_sound;
          prop_random_schedules_sound;
          prop_search_winners_replay;
        ];
      ( "replay",
        [ Alcotest.test_case "no site is named" `Quick test_no_site_is_named ]
      );
    ]
