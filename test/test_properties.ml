(* Property-based tests (QCheck, registered as alcotest cases): invariants
   of the value representation, Java numeric semantics, the wire format,
   the parser, and the optimizer. *)

module Ir = Lime_ir.Ir
module V = Lime_ir.Value
module M = Lime_runtime.Marshal

let qsuite = Testutil.qsuite

(* ------------------------------------------------------------------ *)
(* Java numeric semantics                                               *)
(* ------------------------------------------------------------------ *)

let int32_gen = QCheck.map Int32.to_int QCheck.int32

let prop_i32_matches_int32 =
  QCheck.Test.make ~name:"i32 add/mul/shift match Int32 semantics" ~count:500
    (QCheck.pair int32_gen int32_gen)
    (fun (a, b) ->
      let open Int32 in
      V.i32 (a + b) = to_int (add (of_int a) (of_int b))
      && V.i32 (a * b) = to_int (mul (of_int a) (of_int b))
      && V.i32 (a lsl (b land 31))
         = to_int (shift_left (of_int a) (b land 31)))

let prop_i32_idempotent =
  QCheck.Test.make ~name:"i32 is idempotent" ~count:500 int32_gen (fun a ->
      V.i32 (V.i32 a) = V.i32 a)

let prop_i8_range =
  QCheck.Test.make ~name:"i8 lands in [-128,127] and is idempotent" ~count:500
    QCheck.int (fun a -> let v = V.i8 a in v >= -128 && v <= 127 && V.i8 v = v)

let prop_f32_idempotent =
  QCheck.Test.make ~name:"f32 is idempotent" ~count:500
    (QCheck.float_bound_exclusive 1e30) (fun x -> V.f32 (V.f32 x) = V.f32 x)

(* ------------------------------------------------------------------ *)
(* Value arrays                                                         *)
(* ------------------------------------------------------------------ *)

let shape_gen =
  QCheck.(
    map
      (fun (a, b) -> [| (a mod 7) + 1; (b mod 5) + 1 |])
      (pair small_nat small_nat))

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"array store/load round trip" ~count:200
    QCheck.(pair shape_gen (small_list (float_bound_exclusive 1e6)))
    (fun (shape, xs) ->
      let a = V.make_arr Ir.SFloat shape in
      let vals =
        List.mapi (fun i x -> ((i / shape.(1) mod shape.(0), i mod shape.(1)), x)) xs
      in
      List.iter
        (fun ((i, j), x) -> V.store a [ i; j ] (V.VFloat (V.f32 x)))
        vals;
      List.for_all
        (fun ((i, j), _) ->
          match V.index a [ i; j ] with V.VFloat _ -> true | _ -> false)
        vals)

let prop_view_shares_storage =
  QCheck.Test.make ~name:"views alias their parent" ~count:200 shape_gen
    (fun shape ->
      let a = V.make_arr Ir.SFloat shape in
      V.store a [ 0; 0 ] (V.VFloat 5.0);
      let row = V.view a 0 in
      V.index row [ 0 ] = V.VFloat 5.0)

let prop_deep_copy_detaches =
  QCheck.Test.make ~name:"deep copy detaches storage" ~count:200 shape_gen
    (fun shape ->
      let a = V.make_arr Ir.SFloat shape in
      let b = V.deep_copy a in
      V.store a [ 0; 0 ] (V.VFloat 9.0);
      V.index b [ 0; 0 ] = V.VFloat 0.0)

(* ------------------------------------------------------------------ *)
(* Wire format                                                          *)
(* ------------------------------------------------------------------ *)

let arr_gen : V.t QCheck.arbitrary =
  let open QCheck in
  let build (kind, (rows, cols), seed) =
    let rows = (rows mod 6) + 1 and cols = (cols mod 6) + 1 in
    let rng = Lime_support.Prng.create seed in
    match kind mod 5 with
    | 0 ->
        let a = V.make_arr ~is_value:true Ir.SFloat [| rows; cols |] in
        (match a.V.buf with
        | V.BFloat b ->
            Array.iteri
              (fun i _ -> b.(i) <- V.f32 (Lime_support.Prng.float_range rng (-10.) 10.))
              b
        | _ -> ());
        V.VArr a
    | 1 ->
        V.VArr
          (V.of_int_array
             (Array.init rows (fun _ -> V.i32 (Lime_support.Prng.int rng 1000000 - 500000))))
    | 2 ->
        let a = V.make_arr ~is_value:true Ir.SByte [| rows * cols |] in
        (match a.V.buf with
        | V.BInt b ->
            Array.iteri (fun i _ -> b.(i) <- V.i8 (Lime_support.Prng.byte rng)) b
        | _ -> ());
        V.VArr a
    | 3 ->
        let a = V.make_arr ~is_value:true Ir.SBool [| rows; cols |] in
        (match a.V.buf with
        | V.BInt b ->
            Array.iteri (fun i _ -> b.(i) <- Lime_support.Prng.int rng 2) b
        | _ -> ());
        V.VArr a
    | _ ->
        let a = V.make_arr ~is_value:true Ir.SDouble [| rows |] in
        (match a.V.buf with
        | V.BFloat b ->
            Array.iteri
              (fun i _ -> b.(i) <- Lime_support.Prng.gaussian rng)
              b
        | _ -> ());
        V.VArr a
  in
  make
    Gen.(map build (triple small_nat (pair small_nat small_nat) small_nat))

let prop_marshal_roundtrip =
  QCheck.Test.make ~name:"marshal round trip" ~count:300 arr_gen (fun v ->
      V.approx_equal ~rtol:0.0 ~atol:0.0 v (M.decode (M.encode v)))

let prop_generic_equals_custom =
  QCheck.Test.make ~name:"generic marshaller emits identical bytes" ~count:300
    arr_gen (fun v -> Bytes.equal (M.encode v) (M.encode_generic v))

let prop_wire_size_exact =
  QCheck.Test.make ~name:"wire_size predicts encoding length" ~count:300
    arr_gen (fun v ->
      M.wire_size M.Custom v = Bytes.length (M.encode v)
      && M.wire_size M.Direct v = Bytes.length (M.encode_direct v))

(* ------------------------------------------------------------------ *)
(* Parser stability                                                     *)
(* ------------------------------------------------------------------ *)

(* random expression ASTs over a fixed set of variables *)
let expr_gen : string QCheck.arbitrary =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c"; "xs" ] in
  let lit = map (fun n -> string_of_int (abs n mod 100)) small_int in
  let rec gen depth =
    if depth = 0 then oneof [ var; lit ]
    else
      frequency
        [
          (2, var);
          (2, lit);
          ( 3,
            map2
              (fun op (l, r) -> Printf.sprintf "(%s %s %s)" l op r)
              (oneofl [ "+"; "-"; "*"; "/"; "<"; "=="; "&"; "^"; "<<" ])
              (pair (gen (depth - 1)) (gen (depth - 1))) );
          (1, map (fun e -> Printf.sprintf "(-%s)" e) (gen (depth - 1)));
          ( 1,
            map2
              (fun l r -> Printf.sprintf "%s[%s]" l r)
              (oneofl [ "xs"; "m" ]) (gen (depth - 1)) );
          ( 1,
            map
              (fun e -> Printf.sprintf "Math.sqrt(%s)" e)
              (gen (depth - 1)) );
        ]
  in
  QCheck.make (gen 4)

let prop_parser_fixpoint =
  QCheck.Test.make ~name:"print(parse(e)) is a fixpoint" ~count:300 expr_gen
    (fun src ->
      match
        Lime_support.Diag.protect (fun () ->
            Lime_frontend.Parser.expr_of_string src)
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok e1 ->
          let p1 = Lime_frontend.Ast.expr_to_string e1 in
          let e2 = Lime_frontend.Parser.expr_of_string p1 in
          Lime_frontend.Ast.expr_to_string e2 = p1)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                 *)
(* ------------------------------------------------------------------ *)

let prop_prng_deterministic =
  QCheck.Test.make ~name:"prng streams equal for equal seeds" ~count:100
    QCheck.small_nat (fun seed ->
      let a = Lime_support.Prng.create seed
      and b = Lime_support.Prng.create seed in
      List.init 20 (fun _ -> Lime_support.Prng.int a 1000)
      = List.init 20 (fun _ -> Lime_support.Prng.int b 1000))

(* ------------------------------------------------------------------ *)
(* Optimizer invariants                                                 *)
(* ------------------------------------------------------------------ *)

let config_gen : Lime_gpu.Memopt.config QCheck.arbitrary =
  let open QCheck.Gen in
  QCheck.make
    (map
       (fun (a, b, c, (d, e, f)) ->
         {
           Lime_gpu.Memopt.use_private = a;
           use_local = b;
           pad_local = c;
           use_image = d;
           use_constant = e;
           vectorize = f;
         })
       (quad bool bool bool (triple bool bool bool)))

let nbody_kernel =
  lazy
    (let b = Lime_benchmarks.Nbody.single in
     (Lime_benchmarks.Registry.compile b).Lime_gpu.Pipeline.cp_kernel)

let prop_optimizer_total =
  QCheck.Test.make ~name:"optimizer decides every array, once" ~count:100
    config_gen (fun cfg ->
      let k = Lazy.force nbody_kernel in
      let ds = Lime_gpu.Memopt.optimize cfg k in
      let names = List.map (fun d -> d.Lime_gpu.Memopt.d_array) ds in
      List.length names = List.length (List.sort_uniq compare names))

let prop_written_arrays_global_or_private =
  QCheck.Test.make ~name:"written arrays never in read-only spaces" ~count:100
    config_gen (fun cfg ->
      let k = Lazy.force nbody_kernel in
      let ds = Lime_gpu.Memopt.optimize cfg k in
      List.for_all
        (fun (d : Lime_gpu.Memopt.decision) ->
          d.Lime_gpu.Memopt.d_info.Lime_gpu.Memopt.ai_read_only
          || d.Lime_gpu.Memopt.d_placement.Ir.space = Ir.MGlobal
          || d.Lime_gpu.Memopt.d_placement.Ir.space = Ir.MPrivate)
        ds)

let prop_kernel_time_positive =
  QCheck.Test.make ~name:"kernel time positive and finite under any config"
    ~count:50 config_gen (fun cfg ->
      let p = Lime_benchmarks.Experiments.prepare Lime_benchmarks.Nbody.single in
      let t =
        Lime_benchmarks.Experiments.kernel_time_under p Gpusim.Device.gtx580
          cfg
      in
      t > 0.0 && Float.is_finite t)

let () =
  Alcotest.run "properties"
    [
      qsuite "numerics"
        [
          prop_i32_matches_int32;
          prop_i32_idempotent;
          prop_i8_range;
          prop_f32_idempotent;
        ];
      qsuite "arrays"
        [
          prop_store_load_roundtrip;
          prop_view_shares_storage;
          prop_deep_copy_detaches;
        ];
      qsuite "marshal"
        [ prop_marshal_roundtrip; prop_generic_equals_custom; prop_wire_size_exact ];
      qsuite "parser" [ prop_parser_fixpoint ];
      qsuite "prng" [ prop_prng_deterministic ];
      qsuite "optimizer"
        [
          prop_optimizer_total;
          prop_written_arrays_global_or_private;
          prop_kernel_time_positive;
        ];
    ]
