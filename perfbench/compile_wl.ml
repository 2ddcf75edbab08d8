(* compile: one op is one cold [Pipeline.compile], no cache, over the
   registry sources at both scales plus a seeded draw of generated
   programs.  The traced pass makes the same compile as the public phase
   calls [Pipeline.compile] itself makes, with a span around each. *)

open Bench
module Pipeline = Lime_gpu.Pipeline
module Registry = Lime_benchmarks.Registry

type prog = {
  name : string;
  worker : string;
  source : string;
  expected : string;  (** MD5 hex of the OpenCL the compile must produce *)
}

type plan = {
  progs : prog array;
  ns_per_byte : Fvec.t;
  minor_words : Fvec.t;
}

let expected_file = "perfbench/expected_opencl.txt"
let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

(* A few small generated programs (0.7–1 KB, below the registry's sizes):
   they compile faster than any registry source, so the seed cannot move
   which program sits at the median or at the tail.  The seed draws them
   from a fixed pool, the first [gen_pool] such programs of
   [Gen.corpus ~seed:0], so that each has its OpenCL digest stored. *)
let gen_count = 3
let gen_pool = 16

(* TMatMul is left out: its OpenCL fails Clcheck ("'_res5' used before
   declaration") under every configuration, so it could only be counted
   as a failed op. *)
let excluded = [ "TMatMul" ]

let registry_progs () =
  List.concat_map
    (fun (b : Lime_benchmarks.Bench_def.t) ->
      if List.mem b.name excluded then []
      else
        [ (b.name ^ " @paper", b.worker, b.source);
          (b.name ^ " @small", b.worker, b.source_small) ])
    Registry.workloads

let pool_progs () = gen_programs ~seed:0 ~lo:700 ~hi:1000 gen_pool

(* "<md5> <name>" lines, one per registry and pool program *)
let stored_digests () =
  In_channel.with_open_text expected_file In_channel.input_lines
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i when i > 0 ->
             Some (String.sub l (i + 1) (String.length l - i - 1), String.sub l 0 i)
         | _ -> None)

let print_expected () =
  List.iter
    (fun (name, worker, source) ->
      Printf.printf "%s %s\n" (md5 (Pipeline.compile ~name ~worker source).cp_opencl) name)
    (registry_progs () @ pool_progs ())

(* 23 ops a pass *)
let tail_q = 0.99

let setup (o : opts) =
  let stored = stored_digests () in
  let with_digest (name, worker, source) =
    match List.assoc_opt name stored with
    | Some expected -> { name; worker; source; expected }
    | None -> failwith ("no stored OpenCL digest for " ^ name)
  in
  let pool = Array.of_list (pool_progs ()) in
  Lime_support.Prng.shuffle_in_place (prng o.seed 0xc0) pool;
  let gen = Array.to_list (Array.sub pool 0 gen_count) in
  {
    progs = Array.of_list (List.map with_digest (registry_progs () @ gen));
    ns_per_byte = Fvec.create ();
    minor_words = Fvec.create ();
  }

(* The phases of [Pipeline.compile] after lexing, each called through its
   public function under a span; returns the OpenCL.  The parser lexes
   the source again itself. *)
let traced_compile plan p =
  let name = p.name in
  span "compile" (fun () ->
      let w0 = Gc.minor_words () in
      let ast =
        span "compile.parser.parse" (fun () ->
            Lime_frontend.Parser.program_of_string ~name p.source)
      in
      let tp =
        span "compile.check.typecheck" (fun () ->
            Lime_typecheck.Check.check_program ast)
      in
      let md = span "compile.lower.lower" (fun () -> Lime_ir.Lower.lower_program tp) in
      let k =
        span "compile.kernel.extract" (fun () ->
            Lime_gpu.Kernel.extract md ~worker:p.worker)
      in
      let k = span "compile.simplify.kernel" (fun () -> Lime_gpu.Simplify.kernel k) in
      let ds =
        span "compile.memopt.optimize" (fun () ->
            Lime_gpu.Memopt.optimize Lime_gpu.Memopt.config_all k)
      in
      let cl = span "compile.opencl.generate" (fun () -> Lime_gpu.Opencl.generate k ds) in
      Fvec.add plan.minor_words (Gc.minor_words () -. w0);
      cl)

(* Lexing alone, as the pipeline's observed "lex" phase does; kept out of
   the op's time so the traced op does the same work as the untraced one. *)
let traced_lex plan p =
  let toks, ns =
    timed (fun () ->
        span "compile.lexer.tokenize" (fun () ->
            Lime_frontend.Lexer.tokenize ~name:p.name p.source))
  in
  Fvec.add plan.ns_per_byte (ns /. float (String.length p.source));
  List.length toks

let pass (_ : opts) plan t =
  let tokens = ref 0 and bytes = ref 0 in
  Array.iter
    (fun p ->
      try
        if !tracing then begin
          let ntok = traced_lex plan p in
          let cl, ns = timed (fun () -> traced_compile plan p) in
          t.busy_ns <- t.busy_ns +. ns;
          let chk = span "compile.clcheck.check" (fun () -> Lime_gpu.Clcheck.check cl) in
          tokens := !tokens + ntok;
          bytes := !bytes + String.length cl;
          op_done t ~ns ~what:p.name
            ~ok:(Lime_gpu.Clcheck.ok chk && md5 cl = p.expected)
        end
        else begin
          let c, ns =
            timed (fun () -> Pipeline.compile ~name:p.name ~worker:p.worker p.source)
          in
          t.busy_ns <- t.busy_ns +. ns;
          let cl = c.Pipeline.cp_opencl in
          op_done t ~ns ~what:p.name
            ~ok:(md5 cl = p.expected && Lime_gpu.Clcheck.ok (Lime_gpu.Clcheck.check cl))
        end
      with e -> op_failed t ~what:("compile " ^ p.name) e)
    plan.progs;
  if !tracing then [ ("compile.lexer.tokens", !tokens); ("compile.opencl.bytes", !bytes) ]
  else []

let layer_metrics plan =
  let us n = ("compile." ^ n ^ "_us", median_span_us ("compile." ^ n), "us") in
  [ us "lexer.tokenize";
    ("compile.lexer.ns_per_byte", median_of plan.ns_per_byte, "ns/B");
    us "parser.parse"; us "check.typecheck"; us "lower.lower";
    us "kernel.extract"; us "simplify.kernel"; us "memopt.optimize";
    us "opencl.generate"; us "clcheck.check";
    ("compile.minor_words", median_of plan.minor_words, "words") ]

let peak_rss_mb _ = peak_rss_mb 0
let teardown _ = ()
