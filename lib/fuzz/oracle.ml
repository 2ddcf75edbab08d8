(* The three-way differential oracle over generated programs.

   Layer 1 (reference): the IR interpreter runs the input
   generator and the worker chain directly — this is the semantics.
   Layer 2 (engine): the task-graph engine fires the whole program on
   every simulated device (and once as pure bytecode); the value that
   reaches the sink must equal the reference bit-for-bit, since the
   functional kernel path executes through the same f32-rounding
   interpreter.  Layer 3 (codegen): the generated OpenCL for every
   worker — under the compile config and all eight Fig 8 sweep
   configurations — must pass Clcheck.

   On top of the three layers, the schedule mode replays random rewrite
   sequences from the lime.rewrite catalog against each worker's kernel
   (the same replay path as test_rewrite_legality): an accepted sequence
   must preserve the kernel's result (bit-exact unless it contains the
   reassociating "interchange"), and the rescheduled kernel's OpenCL
   must still pass Clcheck.

   Any violation is a [disagreement] naming the layer; the caller turns
   it into a minimized counterexample via QCheck shrinking. *)

module V = Lime_ir.Value
module Interp = Lime_ir.Interp
module Pipeline = Lime_gpu.Pipeline
module Clcheck = Lime_gpu.Clcheck
module Kernel = Lime_gpu.Kernel
module Engine = Lime_runtime.Engine
module Rewrite = Lime_rewrite.Rewrite
module Prng = Lime_support.Prng
module Diag = Lime_support.Diag

type disagreement = { d_layer : string; d_detail : string }

let disagreement_to_string d =
  Printf.sprintf "[%s] %s" d.d_layer d.d_detail

exception Found of disagreement

let fail layer fmt =
  Printf.ksprintf
    (fun d_detail -> raise (Found { d_layer = layer; d_detail }))
    fmt

let equal_under ~exact a b =
  if exact then V.approx_equal ~rtol:0.0 ~atol:0.0 a b
  else V.approx_equal ~rtol:2e-4 ~atol:1e-6 a b

(* Run a kernel standalone through the interpreter on its synthesized
   module — the replay path's executable form. *)
let run_kernel (k : Kernel.kernel) (input : V.t) : V.t =
  let st = Interp.create (Kernel.to_module k) in
  Interp.call_function st k.Kernel.k_name None [ input ]

let rewrite_names : string list =
  List.map (fun (s : Rewrite.step) -> s.Rewrite.name) Rewrite.catalog

let check ?(devices = Gpusim.Device.all) ?(schedules = 2) ?(sched_seed = 1)
    ?(perturb_reference = fun (v : V.t) -> v) (p : Gen.prog) :
    (unit, disagreement) result =
  let source = Gen.to_source p in
  try
    (* Layer 3a: frontend acceptance.  The generator only emits programs
       it believes are well-typed offloadable filters. *)
    let compiled =
      List.map
        (fun w ->
          match
            Diag.protect (fun () -> Pipeline.compile ~worker:w source)
          with
          | Ok c -> (w, c)
          | Error d -> fail "frontend" "%s rejected: %s" w (Diag.to_string d))
        (Gen.workers p)
    in
    (* Layer 3b: generated OpenCL is well-formed, for the compile config
       and for all eight Fig 8 configurations. *)
    List.iter
      (fun (w, (c : Pipeline.compiled)) ->
        let r = Clcheck.check c.Pipeline.cp_opencl in
        if not (Clcheck.ok r) then
          fail "opencl" "%s: %s" w (Clcheck.report r);
        List.iter
          (fun (cfg, (c' : Pipeline.compiled)) ->
            let r = Clcheck.check c'.Pipeline.cp_opencl in
            if not (Clcheck.ok r) then
              fail "opencl-sweep" "%s under %s: %s" w cfg (Clcheck.report r))
          (Pipeline.sweep c))
      compiled;
    (* Layer 1: reference result by chaining the workers over the
       generated input, all inside the interpreter.  [inputs] records
       what flows into each worker, for the per-kernel schedule replay
       below. *)
    let md = (snd (List.hd compiled)).Pipeline.cp_module in
    let st = Interp.create md in
    let input, inputs, want =
      try
        let input =
          Interp.run_instance st ~cls:"GenApp"
            ~ctor_args:[ V.VInt p.p_n ] ~meth:"gen" []
        in
        let inputs, want =
          List.fold_left
            (fun (ins, v) (w, _) ->
              (ins @ [ v ], Interp.call_function st w None [ v ]))
            ([], input) compiled
        in
        (input, inputs, want)
      with Interp.Runtime_error m ->
        fail "reference" "interpreter crashed on a generated program: %s" m
    in
    ignore input;
    let expect = perturb_reference want in
    (* Layer 2: the engine's sink value on every device, and as pure
       bytecode.  Both sides round through f32 identically, so the
       comparison is bit-exact. *)
    List.iter
      (fun dev ->
        let name =
          match dev with
          | Some d -> d.Gpusim.Device.name
          | None -> "bytecode"
        in
        let cfg = { Engine.default_config with Engine.device = dev } in
        let rep =
          try
            let _, rep =
              Engine.run_program cfg md ~cls:"GenApp" ~meth:"main"
                [ V.VInt p.p_n; V.VInt p.p_steps ]
            in
            rep
          with Interp.Runtime_error m ->
            fail "engine" "%s: crashed: %s" name m
        in
        if not (equal_under ~exact:true expect rep.Engine.last_value) then
          fail "engine" "%s: expected %s at the sink, got %s" name
            (V.to_string expect)
            (V.to_string rep.Engine.last_value))
      (List.map Option.some devices @ [ None ]);
    (* Schedule mode: random catalog sequences replayed against each
       worker's kernel.  Rejected sequences are fine (legality is the
       rewrite suite's property); accepted ones must preserve results
       and still produce well-formed OpenCL. *)
    if schedules > 0 then begin
      let rng = Prng.create (sched_seed lxor Hashtbl.hash source) in
      List.iter2
        (fun (w, (c : Pipeline.compiled)) kin ->
          let k = c.Pipeline.cp_kernel in
          let want_k = run_kernel k kin in
          for _ = 1 to schedules do
            let len = 1 + Prng.int rng 3 in
            let seq =
              List.init len (fun _ ->
                  List.nth rewrite_names
                    (Prng.int rng (List.length rewrite_names)))
            in
            let st0 = Rewrite.initial ~config:c.Pipeline.cp_config k in
            match Rewrite.apply_sequence st0 seq with
            | Error _ -> ()
            | Ok st' ->
                let sched = String.concat ";" seq in
                let got =
                  try run_kernel st'.Rewrite.st_kernel kin
                  with Interp.Runtime_error m ->
                    fail "schedule" "%s under [%s]: crashed: %s" w sched m
                in
                let exact = not (List.mem "interchange" seq) in
                if not (equal_under ~exact want_k got) then
                  fail "schedule" "%s under [%s]: expected %s, got %s" w
                    sched (V.to_string want_k) (V.to_string got);
                let c' =
                  Pipeline.reschedule c ~schedule:seq st'.Rewrite.st_kernel
                    st'.Rewrite.st_config
                in
                let r = Clcheck.check c'.Pipeline.cp_opencl in
                if not (Clcheck.ok r) then
                  fail "schedule-opencl" "%s under [%s]: %s" w sched
                    (Clcheck.report r)
          done)
        compiled inputs
    end;
    Ok ()
  with Found d -> Error d

(* The canonical self-test perturbation: nudge the reference value (the
   scalar itself, or an array's first element) by 1.0 so the engine
   comparison must report a disagreement on every generated program.
   Documented in doc/FUZZING.md as the proof the oracle has teeth. *)
let nudge : V.t -> V.t = function
  | V.VFloat f -> V.VFloat (f +. 1.0)
  | V.VArr a when V.length a > 0 -> (
      let a' = V.deep_copy a in
      match V.index a' [ 0 ] with
      | V.VFloat f ->
          V.store a' [ 0 ] (V.VFloat (f +. 1.0));
          V.VArr a'
      | _ -> V.VArr a')
  | v -> v

(* ------------------------------------------------------------------ *)
(* Counterexample rendering                                            *)
(* ------------------------------------------------------------------ *)

let counterexample ?disagreement ~seed (p : Gen.prog) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "// lime.fuzz counterexample (minimized)\n";
  Buffer.add_string buf
    (Printf.sprintf "// reproduce: limefuzz --seed %d\n" seed);
  (match disagreement with
  | None -> ()
  | Some d ->
      String.split_on_char '\n' (disagreement_to_string d)
      |> List.iter (fun l -> Buffer.add_string buf ("// " ^ l ^ "\n")));
  Buffer.add_string buf
    (Printf.sprintf "// workers: %s\n" (String.concat " " (Gen.workers p)));
  Buffer.add_string buf (Gen.to_source p);
  Buffer.contents buf

let save ?disagreement ~seed ~path (p : Gen.prog) : unit =
  let oc = open_out path in
  output_string oc (counterexample ?disagreement ~seed p);
  close_out oc
