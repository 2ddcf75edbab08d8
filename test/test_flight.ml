(* The tail-sampling flight recorder (lib/server/flight): ring eviction
   order, lazy span materialization, and the JSONL post-mortem dump. *)

module Flight = Lime_server.Flight
module Trace = Lime_service.Trace
module Util = Lime_support.Util
module Json = Lime_support.Json

let entry ?(outcome = "ok") ?(trace_id = "") ~id ~dur () =
  {
    Flight.fe_ts = 1000.0 +. float_of_int id;
    fe_id = id;
    fe_worker = "Doubler.apply";
    fe_name = Printf.sprintf "req-%d" id;
    fe_config = "none";
    fe_digest = "abc123";
    fe_trace_id = trace_id;
    fe_deadline_ms = None;
    fe_wait_s = 0.001;
    fe_dur_s = dur;
    fe_outcome = outcome;
    fe_origin = "memory";
    fe_spans = [];
  }

let ids es = List.map (fun e -> e.Flight.fe_id) es

let test_error_ring_fifo () =
  let t = Flight.create ~capacity:3 in
  for i = 1 to 5 do
    Flight.record t (entry ~outcome:"error" ~id:i ~dur:0.01 ())
  done;
  (* oldest evicted, newest first on read *)
  Alcotest.(check (list int)) "newest first, oldest two evicted" [ 5; 4; 3 ]
    (ids (Flight.errors t))

let test_slow_ring_keeps_the_tail () =
  let t = Flight.create ~capacity:3 in
  (* durations 1,5,3,2,4: the three slowest are 5,4,3 *)
  List.iteri
    (fun i dur -> Flight.record t (entry ~id:(i + 1) ~dur ()))
    [ 0.001; 0.005; 0.003; 0.002; 0.004 ];
  let slow = Flight.slowest t in
  Alcotest.(check (list int)) "slowest first" [ 2; 5; 3 ] (ids slow);
  Alcotest.(check int) "occupancy counts both rings" 3 (Flight.occupancy t);
  Alcotest.(check int) "two pushed out" 2 (Flight.evictions t);
  (* a faster request than everything retained is not admitted *)
  Flight.record t (entry ~id:9 ~dur:0.0001 ());
  Alcotest.(check (list int)) "fast request ignored" [ 2; 5; 3 ]
    (ids (Flight.slowest t))

let test_errored_request_lands_in_both_rings () =
  let t = Flight.create ~capacity:2 in
  Flight.record t (entry ~id:1 ~dur:0.01 ());
  Flight.record t (entry ~outcome:"compile-error" ~id:2 ~dur:0.02 ());
  Alcotest.(check (list int)) "error ring has it" [ 2 ] (ids (Flight.errors t));
  Alcotest.(check (list int)) "slow ring has it too" [ 2; 1 ]
    (ids (Flight.slowest t));
  Alcotest.(check int) "counted once per ring" 3 (Flight.occupancy t)

let test_spans_forced_only_when_retained () =
  let t = Flight.create ~capacity:2 in
  let forcings = ref 0 in
  let spans () =
    incr forcings;
    [
      {
        Trace.sp_id = 1; sp_parent = -1; sp_name = "server.request";
        sp_cat = "server"; sp_args = []; sp_begin_us = 0.0; sp_end_us = 10.0;
      };
    ]
  in
  Flight.record t ~spans (entry ~id:1 ~dur:0.010 ());
  Flight.record t ~spans (entry ~id:2 ~dur:0.020 ());
  Alcotest.(check int) "retained entries force the thunk" 2 !forcings;
  (* slower than nothing retained: the steady-state fast path *)
  Flight.record t ~spans (entry ~id:3 ~dur:0.001 ());
  Alcotest.(check int) "dropped entry never builds its tree" 2 !forcings;
  (match Flight.slowest t with
  | e :: _ ->
      Alcotest.(check int) "retained entry carries the spans" 1
        (List.length e.Flight.fe_spans)
  | [] -> Alcotest.fail "slow ring empty");
  (* an error is retained even when too fast for the slow ring *)
  Flight.record t ~spans (entry ~outcome:"error" ~id:4 ~dur:0.0001 ());
  Alcotest.(check int) "errors force the thunk too" 3 !forcings

let test_capacity_validated () =
  Alcotest.check_raises "capacity 0 refused"
    (Invalid_argument "Flight.create: capacity must be at least 1") (fun () ->
      ignore (Flight.create ~capacity:0))

let test_dump_jsonl () =
  let t = Flight.create ~capacity:2 in
  Flight.record t (entry ~outcome:"error" ~trace_id:"tid-err" ~id:1 ~dur:0.01 ());
  Flight.record t
    ~spans:(fun () ->
      [
        {
          Trace.sp_id = 7; sp_parent = -1; sp_name = "server.request";
          sp_cat = "server"; sp_args = [ ("k", "v\"q") ]; sp_begin_us = 0.0;
          sp_end_us = 12.5;
        };
      ])
    (entry ~trace_id:"tid-slow" ~id:2 ~dur:0.02 ());
  let file = Filename.temp_file "flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc -> Flight.dump t oc);
      let lines =
        In_channel.with_open_text file In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      (* errors ring first, then the slow ring (which holds both) *)
      Alcotest.(check int) "one line per retained entry" 3 (List.length lines);
      List.iter
        (fun l ->
          let v = Testutil.json_exn ~what:"dump line" l in
          Alcotest.(check bool) "line names its ring" true
            (List.mem (Json.member "ring" v)
               [ Some (Json.Str "errors"); Some (Json.Str "slow") ]);
          Alcotest.(check bool) "line wraps an entry object" true
            (match Json.member "entry" v with
            | Some (Json.Obj _) -> true
            | _ -> false))
        lines;
      let whole = String.concat "\n" lines in
      Alcotest.(check bool) "trace ids present" true
        (Util.contains_substring ~sub:"tid-err" whole
        && Util.contains_substring ~sub:"tid-slow" whole);
      Alcotest.(check bool) "span tree serialized" true
        (Util.contains_substring ~sub:"\"name\":\"server.request\"" whole);
      Alcotest.(check bool) "span args escaped" true
        (Util.contains_substring ~sub:"\"k\":\"v\\\"q\"" whole))

let () =
  Alcotest.run "flight"
    [
      ( "rings",
        [
          Alcotest.test_case "error ring is FIFO" `Quick test_error_ring_fifo;
          Alcotest.test_case "slow ring keeps the tail" `Quick
            test_slow_ring_keeps_the_tail;
          Alcotest.test_case "errored request in both rings" `Quick
            test_errored_request_lands_in_both_rings;
          Alcotest.test_case "capacity validated" `Quick
            test_capacity_validated;
        ] );
      ( "tail sampling",
        [
          Alcotest.test_case "spans forced only when retained" `Quick
            test_spans_forced_only_when_retained;
          Alcotest.test_case "jsonl dump" `Quick test_dump_jsonl;
        ] );
    ]
