(* Shared plumbing for the test suites: QCheck seeding, and reading the
   JSON the toolchain writes.

   One process-wide seed, taken from QCHECK_SEED when set and drawn
   fresh otherwise, drives every property test through [to_alcotest];
   when a property fails, the seed is printed alongside alcotest's
   report so the exact corpus can be replayed locally with

     QCHECK_SEED=<seed> dune runtest

   Suites should use [qsuite]/[to_alcotest] instead of calling
   QCheck_alcotest directly, so no property failure is ever
   unreproducible. *)

let seed : int =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None ->
      Random.self_init ();
      Random.int 1_000_000_000

let rand_state () = Random.State.make [| seed |]

let to_alcotest (t : QCheck.Test.t) : unit Alcotest.test_case =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~long:false ~rand:(rand_state ()) t
  in
  ( name,
    speed,
    fun arg ->
      try run arg
      with e ->
        Printf.eprintf
          "\n[testutil] property %S failed; rerun with QCHECK_SEED=%d\n%!"
          name seed;
        raise e )

let qsuite name tests = (name, List.map to_alcotest tests)

(* The one JSON value that is the whole of [text]; anything else fails the
   test with the parser's offset.  Tests read what the toolchain writes
   with the same parser Benchjson uses, never a scanner of their own. *)
let json_exn ?(what = "json") text =
  match Lime_support.Json.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s does not parse: %s" what msg
