(* Unit tests for lib/support: locations, diagnostics, PRNG, utilities,
   observer registries, JSON. *)

open Lime_support

let test_loc_merge () =
  let a = Loc.of_positions "f.lime" (1, 0, 0) (1, 5, 5) in
  let b = Loc.of_positions "f.lime" (2, 3, 10) (2, 8, 15) in
  let m = Loc.merge a b in
  Alcotest.(check int) "start line" 1 (Loc.start_pos_of m).Loc.line;
  Alcotest.(check int) "end line" 2 (Loc.end_pos_of m).Loc.line;
  Alcotest.(check bool) "dummy merge keeps other" true
    (Loc.merge Loc.dummy b = b)

let test_loc_pp () =
  let a = Loc.of_positions "f.lime" (3, 2, 12) (3, 7, 17) in
  Alcotest.(check string) "single-line span" "f.lime:3:2-7" (Loc.to_string a);
  Alcotest.(check bool) "dummy prints" true
    (Loc.to_string Loc.dummy = "<unknown location>")

let test_diag_error () =
  match
    Diag.protect (fun () ->
        Diag.error ~phase:Diag.Typecheck ~loc:Loc.dummy "bad %s" "thing")
  with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error d ->
      Alcotest.(check string) "message" "bad thing" d.Diag.message;
      Alcotest.(check bool) "phase in rendering" true
        (Util.contains_substring ~sub:"[typecheck]" (Diag.to_string d))

let test_diag_collector () =
  let c = Diag.collector () in
  Diag.warn c ~phase:Diag.Parser ~loc:Loc.dummy "w1";
  Diag.warn c ~phase:Diag.Parser ~loc:Loc.dummy "w2";
  Alcotest.(check int) "two warnings" 2 (List.length (Diag.items c));
  Alcotest.(check string) "order preserved" "w1"
    (List.hd (Diag.items c)).Diag.message

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_ranges () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int r 17 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 17);
    let f = Prng.float01 r in
    Alcotest.(check bool) "float01 in range" true (f >= 0.0 && f < 1.0);
    let g = Prng.float_range r (-2.0) 3.0 in
    Alcotest.(check bool) "float_range in range" true (g >= -2.0 && g < 3.0)
  done

let test_prng_copy () =
  let a = Prng.create 9 in
  ignore (Prng.int a 100);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (Prng.int a 1000)
    (Prng.int b 1000)

let test_prng_shuffle () =
  let r = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle_in_place r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_util_arith () =
  Alcotest.(check int) "round_up" 12 (Util.round_up 9 4);
  Alcotest.(check int) "round_up exact" 8 (Util.round_up 8 4);
  Alcotest.(check int) "ceil_div" 3 (Util.ceil_div 9 4);
  Alcotest.(check bool) "is_pow2" true (Util.is_pow2 64);
  Alcotest.(check bool) "is_pow2 false" false (Util.is_pow2 48);
  Alcotest.(check int) "next_pow2" 64 (Util.next_pow2 33);
  Alcotest.(check int) "clamp" 5 (Util.clamp 0 5 9)

let test_util_strings () =
  Alcotest.(check bool) "starts_with" true
    (Util.starts_with ~prefix:"__kernel" "__kernel void f()");
  Alcotest.(check bool) "contains" true
    (Util.contains_substring ~sub:"float4" "__global float4* p");
  Alcotest.(check bool) "not contains" false
    (Util.contains_substring ~sub:"double" "float");
  Alcotest.(check int) "count_lines" 3 (Util.count_lines "a\nb\nc");
  Alcotest.(check int) "count_lines empty" 0 (Util.count_lines "")

let test_util_bytes () =
  Alcotest.(check string) "KB" "64KB" (Util.bytes_to_string 65536);
  Alcotest.(check string) "MB" "3MB" (Util.bytes_to_string (3 * 1024 * 1024));
  Alcotest.(check string) "B" "100B" (Util.bytes_to_string 100)

let test_util_geomean () =
  let g = Util.geomean [ 1.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "geomean" 2.0 g

(* distinct keys compose, a repeated key replaces, removal is by key *)
let test_hooks_keyed () =
  let h : int Hooks.t = Hooks.create () in
  let seen = ref [] in
  let note tag ev = seen := (tag, ev) :: !seen in
  Alcotest.(check bool) "empty registry inactive" false (Hooks.active h);
  Hooks.emit h 0;
  Hooks.add h ~key:"a" (note "a");
  Hooks.add h ~key:"b" (note "b");
  Hooks.add h ~key:"a" (note "a2");
  Alcotest.(check bool) "active once registered" true (Hooks.active h);
  Hooks.emit h 1;
  Alcotest.(check (list (pair string int)))
    "both keys fire, newest first, replaced key once"
    [ ("a2", 1); ("b", 1) ]
    (List.rev !seen);
  seen := [];
  Hooks.remove h "a2";
  Hooks.remove h "a";
  Hooks.emit h 2;
  Alcotest.(check (list (pair string int))) "removed key silent" [ ("b", 2) ]
    !seen;
  Hooks.remove h "b";
  Alcotest.(check bool) "inactive after removing all" false (Hooks.active h)

(* JSON: the one reader every other reader of the repo builds on *)

let accepts text v =
  match Json.parse text with
  | Ok got -> Alcotest.(check bool) ("reads " ^ text) true (got = v)
  | Error msg -> Alcotest.failf "%S refused: %s" text msg

(* refused, with the error naming the byte offset [at] *)
let rejects ~at text =
  let shown =
    if String.length text <= 40 then text else String.sub text 0 40 ^ "..."
  in
  match Json.parse text with
  | Ok _ -> Alcotest.failf "%S accepted" shown
  | Error msg ->
      let where = Printf.sprintf "at offset %d" at in
      Alcotest.(check bool)
        (Printf.sprintf "%S refused %s (%s)" shown where msg)
        true
        (String.ends_with ~suffix:where msg)

let test_json_values () =
  accepts {| {"a": [1, -2.5e3, true, false, null], "b": {"c": "d"}} |}
    (Json.Obj
       [
         ( "a",
           Json.List
             [ Json.Num 1.0; Json.Num (-2500.0); Json.Bool true;
               Json.Bool false; Json.Null ] );
         ("b", Json.Obj [ ("c", Json.Str "d") ]);
       ]);
  accepts "[]" (Json.List []);
  accepts "{ }" (Json.Obj []);
  let v = Json.Obj [ ("k", Json.Num 1.0) ] in
  Alcotest.(check bool) "member" true (Json.member "k" v = Some (Json.Num 1.0));
  Alcotest.(check bool) "missing member" true (Json.member "x" v = None);
  Alcotest.(check bool) "member of a non-object" true
    (Json.member "k" (Json.List [ v ]) = None);
  (* what escape writes, parse reads back *)
  let s = "q\"b\\n\nt\tr\r\001/\x7f\xc3\xa9" in
  accepts ("\"" ^ Json.escape s ^ "\"") (Json.Str s);
  rejects ~at:1 "[}";
  rejects ~at:3 "[1,";
  rejects ~at:3 "{} x";
  rejects ~at:0 ""

(* a deep document fails at the limit, without walking the rest of it *)
let test_json_nesting_bounded () =
  let nest k = String.make k '[' ^ String.make k ']' in
  (match Json.parse (nest 512) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "512 levels refused: %s" msg);
  rejects ~at:512 (nest 513);
  rejects ~at:512 (String.make 1_000_000 '[');
  rejects ~at:(512 * 5) (String.concat "" (List.init 600 (fun _ -> "{\"k\":")))

let test_json_raw_control_rejected () =
  rejects ~at:2 "\"a\tb\"";
  rejects ~at:1 "\"\n\"";
  rejects ~at:2 "[\"\000\"]";
  accepts "\"a\\tb\"" (Json.Str "a\tb")

let test_json_unicode_escape_strict () =
  rejects ~at:3 "\"\\u0_1f\"";
  rejects ~at:3 "\"\\u+01f\"";
  rejects ~at:3 "\"\\u 01f\"";
  rejects ~at:3 "\"\\u01\"";
  accepts "\"\\u001F\"" (Json.Str "\031")

let test_json_unicode_decodes_utf8 () =
  accepts "\"\\u00e9\"" (Json.Str "\xc3\xa9");
  accepts "\"\\u20AC\"" (Json.Str "\xe2\x82\xac");
  accepts "\"\\ud83d\\ude00\"" (Json.Str "\xf0\x9f\x98\x80");
  accepts "\"\\u0041\"" (Json.Str "A");
  (* a surrogate half alone is not a character *)
  rejects ~at:7 "\"\\ud83d\"";
  rejects ~at:7 "\"\\ud83d\\u0041\"";
  rejects ~at:1 "\"\\ude00\""

let test_json_number_grammar () =
  List.iter
    (fun (text, v) -> accepts text (Json.Num v))
    [
      ("0", 0.0); ("-0", -0.0); ("12", 12.0); ("-7", -7.0); ("1.5", 1.5);
      ("1e3", 1000.0); ("1E+2", 100.0); ("2.5e-1", 0.25);
    ];
  List.iter
    (fun (text, at) -> rejects ~at text)
    [
      ("+1", 0); ("01", 1); ("-01", 2); ("1.", 2); (".5", 0); ("1e", 2);
      ("1e+", 3); ("-", 1); ("0x10", 1); ("1_000", 1); ("infinity", 0);
      ("nan", 0); ("--1", 1);
    ]

let () =
  Alcotest.run "support"
    [
      ( "loc",
        [
          Alcotest.test_case "merge" `Quick test_loc_merge;
          Alcotest.test_case "pp" `Quick test_loc_pp;
        ] );
      ( "diag",
        [
          Alcotest.test_case "error" `Quick test_diag_error;
          Alcotest.test_case "collector" `Quick test_diag_collector;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
        ] );
      ( "util",
        [
          Alcotest.test_case "arith" `Quick test_util_arith;
          Alcotest.test_case "strings" `Quick test_util_strings;
          Alcotest.test_case "bytes" `Quick test_util_bytes;
          Alcotest.test_case "geomean" `Quick test_util_geomean;
        ] );
      ("hooks", [ Alcotest.test_case "keyed" `Quick test_hooks_keyed ]);
      ( "json",
        [
          Alcotest.test_case "values and members" `Quick test_json_values;
          Alcotest.test_case "nesting is bounded" `Quick
            test_json_nesting_bounded;
          Alcotest.test_case "raw control characters rejected" `Quick
            test_json_raw_control_rejected;
          Alcotest.test_case "\\u takes four hex digits" `Quick
            test_json_unicode_escape_strict;
          Alcotest.test_case "\\u decodes to UTF-8" `Quick
            test_json_unicode_decodes_utf8;
          Alcotest.test_case "RFC 8259 numbers" `Quick test_json_number_grammar;
        ] );
    ]
