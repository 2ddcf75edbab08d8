(* The daemon's frame codec: every frame round-trips through
   encode/decode and through the incremental reader, and every byte-level
   attack (truncation, hostile length prefix, unknown tag, trailing
   garbage, hostile span count, NaN span timestamp) maps to a total
   [Error] — never an exception. *)

module Wire = Lime_server.Wire
module Trace = Lime_service.Trace

let u32 = QCheck.Gen.int_range 0 0xFFFF_FFFF
let short_str = QCheck.Gen.(string_size (int_range 0 64))
let long_str = QCheck.Gen.(string_size (int_range 0 2048))

(* a parent span is -1 (none, the wire sentinel) or any u32 below the
   sentinel *)
let parent_span = QCheck.Gen.int_range (-1) 0xFFFF_FFFE

(* propagated trace context: any string travels as the trace id (the
   codec does not validate identity) *)
let gen_trace_ctx =
  QCheck.Gen.(
    map
      (fun (tid, parent) ->
        { Wire.tc_trace_id = tid; tc_parent_span = parent })
      (pair short_str parent_span))

let mk_span ?(cat = "r") ?(args = []) id parent b e name =
  {
    Trace.sp_id = id;
    sp_parent = parent;
    sp_name = name;
    sp_cat = cat;
    sp_args = args;
    sp_begin_us = b;
    sp_end_us = e;
  }

(* a shipped span: any u32 id, finite timestamps (NaN is refused; an
   open span's end is negative) *)
let gen_span =
  QCheck.Gen.(
    map
      (fun ((id, parent), (b, e), (name, cat), args) ->
        mk_span ~cat ~args id parent b e name)
      (quad (pair u32 parent_span)
         (pair (float_range 0.0 1e12) (float_range (-1.0) 1e12))
         (pair short_str short_str)
         (list_size (int_range 0 3) (pair short_str short_str))))

let gen_frame =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Wire.Hello v) (int_range 0 0xFF);
        map (fun v -> Wire.Hello_ack v) (int_range 0 0xFF);
        map
          (fun (id, dl, (name, worker, config, source), (trace, placement)) ->
            Wire.Compile
              {
                cr_id = id;
                cr_deadline_ms = dl;
                cr_name = name;
                cr_worker = worker;
                cr_config = config;
                cr_source = source;
                cr_trace = trace;
                cr_placement = placement;
              })
          (quad u32
             (opt (int_range 0 0xFFFF_FFFE))
             (quad short_str short_str short_str long_str)
             (pair (opt gen_trace_ctx)
                (* a placement SPEC is never empty (the parser rejects
                   ""), and an empty one would not round-trip: the
                   encoder writes absent as "" *)
                (opt (map (fun s -> "t=" ^ s) short_str))));
        map
          (fun (id, par, (origin, digest, kernel), (opencl, placements, spans)) ->
            Wire.Result
              {
                ar_id = id;
                ar_origin = origin;
                ar_digest = digest;
                ar_kernel = kernel;
                ar_parallel = par;
                ar_opencl = opencl;
                ar_placements = placements;
                ar_spans = spans;
              })
          (quad u32 bool
             (triple short_str short_str short_str)
             (triple long_str long_str (list_size (int_range 0 4) gen_span)));
        map
          (fun (id, code, retry, msg) ->
            Wire.Err
              {
                er_id = id;
                er_code = code;
                er_retry_after_ms = retry;
                er_msg = msg;
              })
          (quad u32
             (oneofl
                [
                  Wire.Overloaded; Wire.Deadline_exceeded; Wire.Compile_error;
                  Wire.Protocol_error; Wire.Draining;
                ])
             (int_range 0 0xFFFF_FFFF) long_str);
        map (fun id -> Wire.Stats id) u32;
        map (fun (id, text) -> Wire.Stats_reply (id, text)) (pair u32 long_str);
        map (fun id -> Wire.Drain id) u32;
        map
          (fun (id, c, d) ->
            Wire.Drain_ack { da_id = id; da_completed = c; da_dropped = d })
          (triple u32 u32 u32);
      ])

let arb_frame = QCheck.make gen_frame

let payload frame =
  let s = Wire.encode frame in
  String.sub s 4 (String.length s - 4)

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode round-trips" arb_frame
    (fun frame -> Wire.decode (payload frame) = Ok frame)

let reader_roundtrip =
  QCheck.Test.make ~count:200 ~name:"reader yields the fed frame" arb_frame
    (fun frame ->
      let r = Wire.reader () in
      Wire.feed_string r (Wire.encode frame);
      Wire.next r = Ok (Some frame) && Wire.next r = Ok None)

(* the reader must assemble frames regardless of how the bytes are
   chopped up by the transport — feed one byte at a time *)
let reader_byte_at_a_time =
  QCheck.Test.make ~count:100 ~name:"reader survives 1-byte reads" arb_frame
    (fun frame ->
      let s = Wire.encode frame in
      let r = Wire.reader () in
      let ok = ref true in
      String.iteri
        (fun i c ->
          Wire.feed_string r (String.make 1 c);
          match Wire.next r with
          | Ok None -> if i = String.length s - 1 then ok := false
          | Ok (Some f) -> if i <> String.length s - 1 || f <> frame then ok := false
          | Error _ -> ok := false)
        s;
      !ok)

(* any truncation of a valid payload is Malformed, never an exception *)
let truncation_total =
  QCheck.Test.make ~count:200 ~name:"truncated payloads are rejected"
    arb_frame (fun frame ->
      let p = payload frame in
      String.length p = 0
      ||
      let cut = String.length p / 2 in
      match Wire.decode (String.sub p 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let test_oversized_length () =
  (* a hostile length prefix is refused before any allocation; the huge
     payload is never waited for *)
  let b = Buffer.create 8 in
  put_u32 b (Wire.max_frame + 1);
  Buffer.add_string b "x";
  let r = Wire.reader () in
  Wire.feed_string r (Buffer.contents b);
  (match Wire.next r with
  | Error (Wire.Oversized n) ->
      Alcotest.(check int) "declared length reported" (Wire.max_frame + 1) n
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* 4 GiB-1, the largest declarable length, same story *)
  let b = Buffer.create 4 in
  put_u32 b 0xFFFF_FFFF;
  let r = Wire.reader () in
  Wire.feed_string r (Buffer.contents b);
  match Wire.next r with
  | Error (Wire.Oversized _) -> ()
  | _ -> Alcotest.fail "4GiB declared length accepted"

let test_unknown_tag () =
  (* 10-12 are past the last tag, whatever their payload *)
  List.iter
    (fun tag ->
      match Wire.decode (String.make 1 (Char.chr tag) ^ "rest") with
      | Error (Wire.Unknown_tag t) when t = tag -> ()
      | _ -> Alcotest.failf "unknown tag %d not reported" tag)
    [ 0; 10; 11; 12; 0xEE ];
  let payload = "\xEE" ^ "rest" in
  (* and through the reader *)
  let b = Buffer.create 16 in
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  let r = Wire.reader () in
  Wire.feed_string r (Buffer.contents b);
  match Wire.next r with
  | Error (Wire.Unknown_tag 0xEE) -> ()
  | _ -> Alcotest.fail "unknown tag not reported incrementally"

let test_trailing_bytes () =
  let p = payload (Wire.Hello Wire.version) ^ "\x00" in
  match Wire.decode p with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

let test_empty_payload () =
  match Wire.decode "" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "empty payload accepted"

let test_bad_error_code () =
  (* an Err frame with an out-of-range code byte *)
  let p = payload (Wire.Err { er_id = 7; er_code = Wire.Overloaded;
                              er_retry_after_ms = 0; er_msg = "" }) in
  let b = Bytes.of_string p in
  Bytes.set b 5 '\xFF' (* code byte follows tag + u32 id *);
  match Wire.decode (Bytes.to_string b) with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad error code accepted"

let test_pipelined_frames () =
  (* several frames in one feed come out in order *)
  let frames =
    [ Wire.Hello 1; Wire.Stats 2; Wire.Drain 3; Wire.Hello_ack 1 ]
  in
  let r = Wire.reader () in
  Wire.feed_string r (String.concat "" (List.map Wire.encode frames));
  List.iter
    (fun f ->
      match Wire.next r with
      | Ok (Some g) when g = f -> ()
      | _ -> Alcotest.fail "pipelined frame lost or reordered")
    frames;
  Alcotest.(check bool) "drained" true (Wire.next r = Ok None);
  Alcotest.(check int) "no residue" 0 (Wire.buffered r)

let sample_compile ?placement trace =
  Wire.Compile
    {
      cr_id = 7;
      cr_deadline_ms = Some 250;
      cr_name = "n";
      cr_worker = "W.m";
      cr_config = "all";
      cr_source = "src";
      cr_trace = trace;
      cr_placement = placement;
    }

let sample_result spans =
  Wire.Result
    {
      ar_id = 7;
      ar_origin = "memory";
      ar_digest = "d";
      ar_kernel = "k";
      ar_parallel = true;
      ar_opencl = "cl";
      ar_placements = "p";
      ar_spans = spans;
    }

let two_spans =
  [
    mk_span ~args:[ ("k", "v") ] 1 (-1) 0.0 5.0 "a";
    mk_span 2 1 1.0 2.0 "b";
  ]

let sample_ctx =
  { Wire.tc_trace_id = String.make 32 'a'; tc_parent_span = 42 }

let test_no_parent_sentinel () =
  (* parent -1 crosses the wire as the u32 sentinel and comes back -1 *)
  let f =
    sample_compile (Some { Wire.tc_trace_id = "t"; tc_parent_span = -1 })
  in
  Alcotest.(check bool) "rootless trace ctx round-trips" true
    (Wire.decode (payload f) = Ok f)

(* adversarial truncation inside the trace, placement and span fields:
   every proper prefix of the payload must be a total Error *)
let test_new_field_truncation () =
  let check_prefixes what p =
    for cut = 1 to String.length p - 1 do
      match Wire.decode (String.sub p 0 cut) with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s truncated at %d/%d bytes accepted" what cut
            (String.length p)
    done
  in
  check_prefixes "traced Compile" (payload (sample_compile (Some sample_ctx)));
  check_prefixes "placed Compile"
    (payload (sample_compile ~placement:"W.m=gtx580" (Some sample_ctx)));
  check_prefixes "span-carrying Result" (payload (sample_result two_spans))

(* the bytes of an untraced Result are pinned: its empty span list is a
   u32 0 count *)
let test_untraced_result_bytes () =
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  Alcotest.(check string) "untraced Result payload"
    "04000000070100000006\
     6d656d6f72790000000164000000016b00000002636c000000017000000000"
    (hex (payload (sample_result [])))

(* boundary spans survive exactly: the largest id below the sentinel, an
   empty category, an empty argument value, a zero-width span *)
let test_span_roundtrip () =
  let spans =
    [
      mk_span ~cat:"server" 0 (-1) 0.0 12.5 "server.request";
      mk_span ~args:[ ("k", "v"); ("empty", "") ] 1 0 1.25 3.75 "pipeline";
      mk_span ~cat:"" 0xFFFF_FFFE 1 2.0 2.0 "zero-width";
    ]
  in
  List.iter
    (fun spans ->
      let f = sample_result spans in
      Alcotest.(check bool)
        (Printf.sprintf "%d spans round-trip" (List.length spans))
        true
        (Wire.decode (payload f) = Ok f))
    [ spans; [] ]

(* the span fields guard outside input: a hostile count is refused before
   any per-span read, a NaN timestamp never decodes, and a trailing byte
   after the last span is Malformed *)
let test_hostile_spans () =
  let refused what p =
    match Wire.decode p with
    | Error (Wire.Malformed msg) -> msg
    | Error e ->
        Alcotest.failf "%s: wrong error %s" what (Wire.error_to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  (* the count is the last field of an untraced Result *)
  let untraced = payload (sample_result []) in
  let with_count n =
    let b = Buffer.create 4 in
    put_u32 b n;
    String.sub untraced 0 (String.length untraced - 4) ^ Buffer.contents b
  in
  List.iter
    (fun n ->
      let msg = refused (Printf.sprintf "span count %#x" n) (with_count n) in
      Alcotest.(check bool) "refused on the count, not a per-span read" true
        (String.starts_with ~prefix:"span count" msg))
    [ 0xFFFF_FFFF; 1_000_001 ];
  ignore
    (refused "NaN begin"
       (payload (sample_result [ mk_span 1 (-1) Float.nan 1.0 "nan" ])));
  ignore
    (refused "NaN end"
       (payload (sample_result [ mk_span 1 (-1) 0.0 Float.nan "nan" ])));
  ignore (refused "trailing byte" (payload (sample_result two_spans) ^ "\x00"))

(* the placement field round-trips next to every trace context *)
let test_placement_field () =
  let check what f =
    Alcotest.(check bool) what true (Wire.decode (payload f) = Ok f)
  in
  check "placement alone" (sample_compile ~placement:"A.f=hd5970" None);
  check "placement plus trace"
    (sample_compile ~placement:"A.f=hd5970,B.g=host" (Some sample_ctx));
  (* a trace ctx with an empty id must survive the presence flag *)
  check "placement plus empty-id trace"
    (sample_compile ~placement:"A.f=corei7"
       (Some { Wire.tc_trace_id = ""; tc_parent_span = -1 }))

let qsuite =
  List.map Testutil.to_alcotest
    [ roundtrip; reader_roundtrip; reader_byte_at_a_time; truncation_total ]

let () =
  Alcotest.run "wire"
    [
      ("roundtrip", qsuite);
      ( "adversarial",
        [
          Alcotest.test_case "oversized declared length" `Quick
            test_oversized_length;
          Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
          Alcotest.test_case "empty payload" `Quick test_empty_payload;
          Alcotest.test_case "bad error code" `Quick test_bad_error_code;
          Alcotest.test_case "pipelined frames" `Quick test_pipelined_frames;
        ] );
      ( "trace context",
        [
          Alcotest.test_case "no-parent sentinel" `Quick
            test_no_parent_sentinel;
          Alcotest.test_case "truncation in the new fields" `Quick
            test_new_field_truncation;
          Alcotest.test_case "placement provenance round-trips" `Quick
            test_placement_field;
        ] );
      ( "spans",
        [
          Alcotest.test_case "untraced Result bytes pinned" `Quick
            test_untraced_result_bytes;
          Alcotest.test_case "span list round-trips" `Quick
            test_span_roundtrip;
          Alcotest.test_case "hostile span fields are refused" `Quick
            test_hostile_spans;
        ] );
    ]
