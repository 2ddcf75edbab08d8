(* limefuzz — standalone driver for the lime.fuzz differential oracle.

   Generates random well-typed Lime task graphs and checks every one
   against the three-way oracle (reference interpreter vs engine on all
   devices vs OpenCL well-formedness, plus random rewrite-schedule
   replays).  Any disagreement is shrunk to a minimal program and
   printed as a loadable .lime file.  [--selftest] perturbs the
   reference value on purpose and demands the oracle catch it — the
   harness-has-teeth check ci.sh runs on every build. *)

module Gen = Lime_fuzz.Gen
module Oracle = Lime_fuzz.Oracle

type opts = {
  mutable count : int;
  mutable seed : int;
  mutable schedules : int;
  mutable selftest : bool;
  mutable out : string option;
}

let usage () =
  print_string
    "usage: limefuzz [FLAGS]\n\n\
     Fuzz the compiler: generated Lime task graphs through the three-way\n\
     differential oracle (interpreter / engine on every device / OpenCL\n\
     well-formedness) with random rewrite-schedule replays.\n\n\
     Flags:\n\
    \  --count N      programs to generate (default 200)\n\
    \  --seed S       generation seed; failures print it for replay (default 42)\n\
    \  --schedules K  random rewrite sequences replayed per worker kernel\n\
    \                 (default 2; 0 disables schedule fuzzing)\n\
    \  --out FILE     also write a shrunk counterexample as a loadable .lime\n\
    \  --selftest     perturb the reference on purpose and require the oracle\n\
    \                 to catch it with a shrunk counterexample (exit 0 = teeth)\n\
    \  --help         this text\n"

let parse_args () =
  let o =
    { count = 200; seed = 42; schedules = 2; selftest = false; out = None }
  in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n -> k n
    | None ->
        Printf.eprintf "bad %s %s: expected an integer\n" name v;
        exit 2
  in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-help" :: _ ->
        usage ();
        exit 0
    | "--count" :: v :: rest ->
        int_arg "--count" v (fun n -> o.count <- n);
        go rest
    | "--seed" :: v :: rest ->
        int_arg "--seed" v (fun n -> o.seed <- n);
        go rest
    | "--schedules" :: v :: rest ->
        int_arg "--schedules" v (fun n -> o.schedules <- n);
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--selftest" :: rest ->
        o.selftest <- true;
        go rest
    | ("--count" | "--seed" | "--schedules" | "--out") :: [] ->
        Printf.eprintf "missing argument (see --help)\n";
        exit 2
    | arg :: _ ->
        Printf.eprintf "unknown argument %s (see --help)\n" arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* Run [count] programs through the oracle under QCheck, so a failing
   program is shrunk before being reported. *)
let check_cell (o : opts) ~name
    (check : Gen.prog -> (unit, Oracle.disagreement) result) =
  let cell =
    QCheck.Test.make_cell ~count:o.count ~name Gen.arbitrary (fun p ->
        Result.is_ok (check p))
  in
  let rand = Random.State.make [| o.seed |] in
  QCheck.TestResult.get_state (QCheck.Test.check_cell ~rand cell)

let report_counterexample (o : opts)
    (check : Gen.prog -> (unit, Oracle.disagreement) result)
    (inst : Gen.prog QCheck.TestResult.counter_ex) =
  let p = inst.QCheck.TestResult.instance in
  let disagreement =
    match check p with Error d -> Some d | Ok () -> None
  in
  Printf.eprintf "limefuzz: disagreement at seed %d (shrunk %d steps):\n%s\n"
    o.seed inst.QCheck.TestResult.shrink_steps
    (Oracle.counterexample ?disagreement ~seed:o.seed p);
  match o.out with
  | None -> ()
  | Some path ->
      Oracle.save ?disagreement ~seed:o.seed ~path p;
      Printf.eprintf "limefuzz: counterexample written to %s\n" path

let run_fuzz (o : opts) : int =
  let check p = Oracle.check ~schedules:o.schedules ~sched_seed:o.seed p in
  let t0 = Lime_support.Clock.now_s () in
  let state = check_cell o ~name:"lime.fuzz three-way oracle" check in
  let dt = Lime_support.Clock.now_s () -. t0 in
  match state with
  | QCheck.TestResult.Success ->
      Printf.printf
        "limefuzz: %d generated programs, 0 disagreements (seed %d, %d \
         schedule replays per kernel, %.1fs)\n"
        o.count o.seed o.schedules dt;
      0
  | QCheck.TestResult.Failed { instances = inst :: _ } ->
      report_counterexample o check inst;
      1
  | QCheck.TestResult.Failed { instances = [] }
  | QCheck.TestResult.Failed_other _ ->
      Printf.eprintf "limefuzz: failed without a counterexample (seed %d)\n"
        o.seed;
      1
  | QCheck.TestResult.Error { instance; exn; _ } ->
      Printf.eprintf "limefuzz: oracle raised %s (seed %d)\n"
        (Printexc.to_string exn) o.seed;
      report_counterexample o check instance;
      1

(* The harness-has-teeth check: with the reference deliberately nudged,
   a healthy oracle must fail and shrink.  Success here means exit 0. *)
let run_selftest (o : opts) : int =
  let check p =
    Oracle.check ~schedules:0 ~perturb_reference:Oracle.nudge p
  in
  let o = { o with count = min o.count 25 } in
  match check_cell o ~name:"lime.fuzz oracle selftest (nudged reference)" check with
  | QCheck.TestResult.Failed { instances = inst :: _ } ->
      let p = inst.QCheck.TestResult.instance in
      Printf.printf
        "limefuzz: selftest ok — nudged reference caught (layer %s, shrunk \
         %d steps, %d-line program)\n"
        (match check p with
        | Error d -> d.Oracle.d_layer
        | Ok () -> "?")
        inst.QCheck.TestResult.shrink_steps
        (List.length (String.split_on_char '\n' (Gen.to_source p)));
      0
  | QCheck.TestResult.Success ->
      Printf.eprintf
        "limefuzz: selftest FAILED — the oracle accepted a perturbed \
         reference; the harness has no teeth\n";
      1
  | _ ->
      Printf.eprintf "limefuzz: selftest errored unexpectedly\n";
      1

let () =
  let o = parse_args () in
  exit (if o.selftest then run_selftest o else run_fuzz o)
