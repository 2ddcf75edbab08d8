(* The streaming quantile sketch (lib/service/sketch): the documented
   rank-error bound against exact order statistics, lossless merging, and
   rolling-window rotation under a manual clock. *)

module Sketch = Lime_service.Sketch

(* durations spanning six decades, like real request latencies *)
let duration_gen =
  QCheck.Gen.(
    map2
      (fun m e -> m *. (10.0 ** float_of_int e))
      (float_range 0.1 1.0) (int_range (-6) 2))

let durations_arb =
  QCheck.make
    ~print:(fun xs -> String.concat ";" (List.map string_of_float xs))
    QCheck.Gen.(list_size (int_range 1 400) duration_gen)

let quantiles = [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let exact_rank sorted q =
  sorted.(Sketch.rank_of q (Array.length sorted) - 1)

(* the headline guarantee: for any stream and any q, the estimate is
   within [alpha] relative error of the exact sample at the shared rank *)
let prop_rank_error_bound =
  QCheck.Test.make ~name:"quantile within alpha of the exact rank" ~count:200
    durations_arb (fun xs ->
      let sk = Sketch.create () in
      List.iter (Sketch.add sk) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          match Sketch.quantile sk q with
          | None -> false
          | Some est ->
              let exact = exact_rank sorted q in
              Float.abs (est -. exact)
              <= (Sketch.alpha sk *. exact) +. 1e-12)
        quantiles)

(* a bucket midpoint never escapes the observed range, zero bucket
   included *)
let prop_within_observed =
  QCheck.Test.make ~name:"quantile within observed bounds" ~count:200
    QCheck.(
      pair durations_arb (make QCheck.Gen.(float_range (-1.0) 1e-9)))
    (fun (xs, tiny) ->
      List.for_all
        (fun xs ->
          let sk = Sketch.create () in
          List.iter (Sketch.add sk) xs;
          let lo = Sketch.min_seen sk and hi = Sketch.max_seen sk in
          List.for_all
            (fun q ->
              match Sketch.quantile sk q with
              | None -> false
              | Some v -> lo <= v && v <= hi)
            quantiles)
        [ xs; [ tiny ]; tiny :: xs ])

(* merging two sketches must be indistinguishable from one sketch that
   saw both streams: identical counts and identical bucket answers *)
let prop_merge_lossless =
  QCheck.Test.make ~name:"merge equals the combined stream" ~count:100
    (QCheck.pair durations_arb durations_arb) (fun (xs, ys) ->
      let a = Sketch.create () and b = Sketch.create ()
      and both = Sketch.create () in
      List.iter (Sketch.add a) xs;
      List.iter (Sketch.add b) ys;
      List.iter (Sketch.add both) (xs @ ys);
      Sketch.merge ~into:a b;
      Sketch.count a = Sketch.count both
      && Float.abs (Sketch.sum a -. Sketch.sum both)
         <= 1e-9 *. Float.max 1.0 (Sketch.sum both)
      && List.for_all
           (fun q -> Sketch.quantile a q = Sketch.quantile both q)
           quantiles)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:100
    (QCheck.triple durations_arb durations_arb durations_arb)
    (fun (xs, ys, zs) ->
      let feed vs =
        let s = Sketch.create () in
        List.iter (Sketch.add s) vs;
        s
      in
      (* ((a <- b) <- c)  vs  (a <- (b <- c)) *)
      let left = feed xs in
      Sketch.merge ~into:left (feed ys);
      Sketch.merge ~into:left (feed zs);
      let bc = feed ys in
      Sketch.merge ~into:bc (feed zs);
      let right = feed xs in
      Sketch.merge ~into:right bc;
      Sketch.count left = Sketch.count right
      && List.for_all
           (fun q -> Sketch.quantile left q = Sketch.quantile right q)
           quantiles)

let test_edge_cases () =
  let sk = Sketch.create () in
  Alcotest.(check bool) "empty sketch answers None" true
    (Sketch.quantile sk 0.5 = None);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Sketch.quantile: q must be in [0, 1]") (fun () ->
      ignore (Sketch.quantile sk 1.5));
  (* zero and negative values land in the exact zero bucket *)
  Sketch.add sk 0.0;
  Sketch.add sk (-3.0);
  Sketch.add sk 4.0;
  Alcotest.(check int) "all three counted" 3 (Sketch.count sk);
  Alcotest.(check bool) "median is the zero bucket" true
    (Sketch.quantile sk 0.5 = Some 0.0);
  (match Sketch.quantile sk 1.0 with
  | Some v ->
      Alcotest.(check bool) "max within 1%" true (Float.abs (v -. 4.0) < 0.05)
  | None -> Alcotest.fail "non-empty sketch");
  Alcotest.check_raises "mismatched alphas refuse to merge"
    (Invalid_argument "Sketch.merge: sketches have different alpha")
    (fun () ->
      Sketch.merge ~into:sk (Sketch.create ~alpha:0.05 ()))

let test_rank_convention () =
  (* the convention both the bench gate and the exposition rely on *)
  Alcotest.(check int) "q=0 is rank 1" 1 (Sketch.rank_of 0.0 100);
  Alcotest.(check int) "median of 100 is rank 50" 50 (Sketch.rank_of 0.5 100);
  Alcotest.(check int) "p99 of 100 is rank 99" 99 (Sketch.rank_of 0.99 100);
  Alcotest.(check int) "q=1 clamps to n" 100 (Sketch.rank_of 1.0 100);
  Alcotest.(check int) "p99 of 3 is rank 3" 3 (Sketch.rank_of 0.99 3)

(* rotation under a manual clock: a 5-slot ring of one-minute intervals *)
let test_window_rotation () =
  let now = ref 0.0 in
  let w =
    Sketch.window ~interval_s:60.0 ~slots:5 ~clock:(fun () -> !now) ()
  in
  Alcotest.(check (float 1e-9)) "span is slots x interval" 300.0
    (Sketch.window_span_s w);
  Sketch.window_add w 1.0;
  (match Sketch.window_quantile w 60.0 0.5 with
  | Some v ->
      Alcotest.(check bool) "current interval visible" true
        (Float.abs (v -. 1.0) < 0.02)
  | None -> Alcotest.fail "fresh value not visible");
  (* two intervals later: the 1m view covers only ids [e-1, e], so the
     old sample has aged out of it but still sits in the 5m view *)
  now := 120.0;
  Sketch.window_add w 5.0;
  let one_m = Sketch.window_sketch w 60.0 in
  Alcotest.(check int) "1m view holds only the new sample" 1
    (Sketch.count one_m);
  (match Sketch.quantile one_m 0.5 with
  | Some v ->
      Alcotest.(check bool) "and it is the new value" true
        (Float.abs (v -. 5.0) < 0.1)
  | None -> Alcotest.fail "1m view empty");
  Alcotest.(check int) "5m view holds both" 2
    (Sketch.count (Sketch.window_sketch w 300.0));
  (* six intervals later the slot holding the first sample has been
     recycled: the 5m view sees one sample, the all-time totals both *)
  now := 360.0;
  Alcotest.(check int) "rotated-out sample gone from the 5m view" 1
    (Sketch.count (Sketch.window_sketch w 300.0));
  Alcotest.(check int) "all-time count immune to rotation" 2
    (Sketch.window_count w);
  (* twelve intervals: every slot id is stale, the window is empty *)
  now := 720.0;
  Alcotest.(check bool) "fully-rotated window answers None" true
    (Sketch.window_quantile w 300.0 0.5 = None);
  Alcotest.(check int) "all-time count still intact" 2 (Sketch.window_count w);
  Sketch.window_clear w;
  Alcotest.(check int) "clear zeroes the totals" 0 (Sketch.window_count w)

(* a slot is re-zeroed lazily when its interval id comes around again:
   writing into the recycled slot must not resurrect the old samples *)
let test_window_slot_recycling () =
  let now = ref 0.0 in
  let w =
    Sketch.window ~interval_s:1.0 ~slots:3 ~clock:(fun () -> !now) ()
  in
  Sketch.window_add w 10.0;
  (* interval 3 maps onto interval 0's slot *)
  now := 3.0;
  Sketch.window_add w 20.0;
  let sk = Sketch.window_sketch w 3.0 in
  Alcotest.(check int) "recycled slot holds only the new sample" 1
    (Sketch.count sk);
  match Sketch.quantile sk 1.0 with
  | Some v ->
      Alcotest.(check bool) "old sample not resurrected" true (v > 15.0)
  | None -> Alcotest.fail "window empty"

let () =
  Alcotest.run "sketch"
    [
      ( "bounds",
        [
          QCheck_alcotest.to_alcotest prop_rank_error_bound;
          QCheck_alcotest.to_alcotest prop_within_observed;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "rank convention" `Quick test_rank_convention;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_merge_lossless;
          QCheck_alcotest.to_alcotest prop_merge_associative;
        ] );
      ( "windows",
        [
          Alcotest.test_case "rotation" `Quick test_window_rotation;
          Alcotest.test_case "slot recycling" `Quick
            test_window_slot_recycling;
        ] );
    ]
