(* Fixed inputs for the front end's golden tests: every registry source
   at both scales, a generated-program corpus, and fixed-seed byte
   mutants of the registry sources.  The goldens digest what the lexer
   and parser make of these inputs, so any change in a token, a location
   or a diagnostic shows as a changed digest. *)

module Prng = Lime_support.Prng
module Loc = Lime_support.Loc

let registry_sources () =
  List.concat_map
    (fun (b : Lime_benchmarks.Bench_def.t) ->
      [ (b.name ^ "@paper", b.source); (b.name ^ "@small", b.source_small) ])
    Lime_benchmarks.Registry.workloads

let generated_sources () =
  List.mapi
    (fun i p -> (Printf.sprintf "gen#%d" i, Lime_fuzz.Gen.to_source p))
    (Lime_fuzz.Gen.corpus ~seed:0 200)

(* The bytes a mutant splices in: every byte that starts or continues a
   token or a literal, trivia, a byte no token starts with, and NUL. *)
let alphabet = "[]{}()=<>!+-*/%&|^~.;,?:@'\"\\ \n0123456789xXeEfFdDlL_$\000"

(* One to three edits: insert, delete or replace one byte, or truncate. *)
let mutate rng src =
  let edit s =
    let len = String.length s in
    let i = Prng.int rng (len + 1) in
    let byte () = String.make 1 alphabet.[Prng.int rng (String.length alphabet)] in
    let before = String.sub s 0 i in
    let after k = String.sub s (i + k) (len - i - k) in
    match Prng.int rng 16 with
    | 0 -> before
    | r when r < 6 || i = len -> before ^ byte () ^ after 0
    | r when r < 11 -> before ^ after 1
    | _ -> before ^ byte () ^ after 1
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Prng.int rng 3) src

let mutants ~seed count =
  let rng = Prng.create seed in
  let sources = Array.of_list (registry_sources ()) in
  List.init count (fun k ->
      let name, src = sources.(k mod Array.length sources) in
      (Printf.sprintf "%s~%d" name k, mutate rng src))

(* Every field of a location: [Loc.to_string] leaves out the offsets. *)
let loc_string ({ source; start_pos = a; end_pos = b } : Loc.t) =
  Printf.sprintf "%s:%d:%d@%d-%d:%d@%d" source a.line a.col a.offset b.line
    b.col b.offset

let diag_string (d : Lime_support.Diag.t) =
  Lime_support.Diag.to_string d ^ " " ^ loc_string d.loc

(* MD5 hex of the concatenated lines [f x] over [xs]. *)
let digest f xs =
  let b = Buffer.create 4096 in
  List.iter (fun x -> Buffer.add_string b (f x); Buffer.add_char b '\n') xs;
  Digest.to_hex (Digest.string (Buffer.contents b))
