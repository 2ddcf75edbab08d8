(* Tests for the wire-format marshaling (Fig 6): round trips, generic ≡
   custom serializer, views, and the time model. *)

module Ir = Lime_ir.Ir
module V = Lime_ir.Value
module M = Lime_runtime.Marshal

let roundtrip v = M.decode (M.encode v)

let check_roundtrip name v =
  Alcotest.(check bool) name true (V.approx_equal ~rtol:0.0 ~atol:0.0 v (roundtrip v))

let test_scalars () =
  check_roundtrip "int" (V.VInt 42);
  check_roundtrip "negative int" (V.VInt (-7));
  check_roundtrip "long" (V.VLong 0x1234_5678_9ABC_DEFL);
  check_roundtrip "float" (V.VFloat (V.f32 3.14));
  check_roundtrip "double" (V.VDouble 2.718281828459045);
  check_roundtrip "unit" V.VUnit

let test_arrays () =
  check_roundtrip "float 1d" (V.VArr (V.of_float_array [| 1.0; 2.0; 3.5 |]));
  check_roundtrip "float 2d"
    (V.VArr (V.of_float_matrix 3 4 (Array.init 12 float_of_int)));
  check_roundtrip "int 1d" (V.VArr (V.of_int_array [| -1; 0; 255; 65536 |]));
  check_roundtrip "double 1d"
    (V.VArr (V.of_float_array ~elem:Ir.SDouble [| 1.0e-300; 1.0e300 |]));
  (* byte array with negative values *)
  let b = V.make_arr Ir.SByte [| 4 |] in
  V.store b [ 0 ] (V.VInt (-128));
  V.store b [ 1 ] (V.VInt 127);
  V.store b [ 2 ] (V.VInt (-1));
  V.store b [ 3 ] (V.VInt 0);
  check_roundtrip "byte range" (V.VArr b);
  (* long array *)
  let l = V.make_arr Ir.SLong [| 2 |] in
  V.store l [ 0 ] (V.VLong Int64.min_int);
  V.store l [ 1 ] (V.VLong Int64.max_int);
  check_roundtrip "long extremes" (V.VArr l)

let test_view_encoding () =
  (* encoding a non-contiguous view equals encoding its copy *)
  let m = V.of_float_matrix 4 3 (Array.init 12 float_of_int) in
  let row = V.view m 2 in
  let copy = V.deep_copy row in
  Alcotest.(check bytes) "view encodes as its contents" (M.encode (V.VArr copy))
    (M.encode (V.VArr row))

let test_generic_equals_custom () =
  let cases =
    [
      V.VArr (V.of_float_array (Array.init 100 (fun i -> float_of_int i *. 0.5)));
      V.VArr (V.of_float_matrix 8 4 (Array.init 32 float_of_int));
      V.VArr (V.of_int_array (Array.init 50 (fun i -> i * i)));
      V.VInt 7;
      V.VFloat 1.5;
    ]
  in
  List.iteri
    (fun i v ->
      Alcotest.(check bytes)
        (Printf.sprintf "case %d identical bytes" i)
        (M.encode v) (M.encode_generic v))
    cases

let test_wire_size () =
  let v = V.VArr (V.of_float_matrix 10 4 (Array.make 40 0.0)) in
  Alcotest.(check int) "predicted size matches encoding"
    (Bytes.length (M.encode v))
    (M.wire_size M.Custom v)

let test_time_model () =
  (* generic must be much slower than custom; bigger is slower *)
  let c1 = M.java_marshal_seconds ~serializer:M.Custom 1_000_000 in
  let g1 = M.java_marshal_seconds ~serializer:M.Generic 1_000_000 in
  Alcotest.(check bool) "generic ~10x slower" true (g1 > c1 *. 8.0);
  let c2 = M.java_marshal_seconds ~serializer:M.Custom 2_000_000 in
  Alcotest.(check bool) "monotone in size" true (c2 > c1);
  (* byte arrays pay per element: 1-byte elements cost ~4x more per byte *)
  let bytes_arr = M.java_marshal_seconds ~elem_bytes:1 1_000_000 in
  Alcotest.(check bool) "byte arrays dearer per byte" true (bytes_arr > c1 *. 2.0)

let test_decode_errors () =
  match M.decode (Bytes.of_string "\xFFgarbage") with
  | exception M.Marshal_error _ -> ()
  | _ -> Alcotest.fail "expected a marshal error"

let test_objects_rejected () =
  let obj = V.VObj { V.cls = "C"; fields = Hashtbl.create 1 } in
  match M.encode obj with
  | exception M.Marshal_error _ -> ()
  | _ -> Alcotest.fail "objects must not marshal"

let () =
  Alcotest.run "marshal"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "views" `Quick test_view_encoding;
        ] );
      ( "serializers",
        [
          Alcotest.test_case "generic = custom" `Quick test_generic_equals_custom;
          Alcotest.test_case "wire size" `Quick test_wire_size;
          Alcotest.test_case "time model" `Quick test_time_model;
        ] );
      ( "errors",
        [
          Alcotest.test_case "bad tag" `Quick test_decode_errors;
          Alcotest.test_case "objects rejected" `Quick test_objects_rejected;
        ] );
    ]
