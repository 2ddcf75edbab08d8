(** Benchmark descriptor shared by the nine Table 3 workloads.

    Each benchmark bundles: the Lime source (compiled by the real pipeline),
    the offloaded worker, deterministic input builders at the paper's input
    size and at a small test size, an independent OCaml reference
    implementation of the kernel (for differential testing), the memory
    configuration the autotuner settles on (used for the end-to-end Fig 7
    runs), and the per-device hand-tuned comparator of Fig 8. *)

module Ir = Lime_ir.Ir
module Value = Lime_ir.Value
module Memopt = Lime_gpu.Memopt
module Prng = Lime_support.Prng

(** Hand-tuned OpenCL comparator for one device: the placement an expert
    chose, plus a factor for hand-specific effects outside the optimizer's
    search space — >1.0 where the expert code is slower (e.g. Mosaic's
    imperfect bank-conflict padding, §5.2), <1.0 where manual tricks beat
    the compiler. *)
type hand_tuned = {
  ht_config : Memopt.config;
  ht_factor : float;
}

type t = {
  name : string;
  description : string;
  source : string;  (** Lime program, paper-scale constants *)
  source_small : string;
      (** same program with test-scale constants (grid sizes etc.); the
          [reference] implementation corresponds to THIS variant *)
  worker : string;  (** qualified filter worker, e.g. ["NBody.computeForces"] *)
  datatype : string;  (** Table 3 data type column *)
  (* input builders; deterministic given the seed *)
  input : ?seed:int -> unit -> Value.t;  (** paper-scale input *)
  input_small : ?seed:int -> unit -> Value.t;  (** test-scale input *)
  reference : Value.t -> Value.t;
      (** independent OCaml implementation of the kernel *)
  best_config : Memopt.config;  (** what the auto-exploration settles on *)
  hand : (string * hand_tuned) list;  (** device name -> comparator *)
  in_fig8 : bool;
  interop_factor : float;
      (** slowdown of the Lime-bytecode baseline vs pure Java caused by
          Java/Lime interop (JG-Crypt is ~2x, §5.1) *)
  uses_double : bool;
}

let mk ?(interop_factor = 1.0) ?(uses_double = false) ?(in_fig8 = false)
    ?(hand = []) ?source_small ~name ~description ~source ~worker ~datatype
    ~input ~input_small ~reference ~best_config () =
  {
    name;
    description;
    source;
    source_small = Option.value source_small ~default:source;
    worker;
    datatype;
    input;
    input_small;
    reference;
    best_config;
    hand;
    in_fig8;
    interop_factor;
    uses_double;
  }

(* ------------------------------------------------------------------ *)
(* Helpers for input builders and references                          *)
(* ------------------------------------------------------------------ *)

let f32 = Value.f32

(** Random float matrix (rows x cols), single precision, values in
    [lo, hi). *)
let rand_matrix ?(elem = Ir.SFloat) ~seed ~rows ~cols ~lo ~hi () : Value.t =
  let rng = Prng.create seed in
  let data =
    Array.init (rows * cols) (fun _ -> Prng.float_range rng lo hi)
  in
  Value.VArr (Value.of_float_matrix ~elem rows cols data)

let rand_floats ?(elem = Ir.SFloat) ~seed ~n ~lo ~hi () : Value.t =
  let rng = Prng.create seed in
  Value.VArr
    (Value.of_float_array ~elem
       (Array.init n (fun _ -> Prng.float_range rng lo hi)))

let arr_of (v : Value.t) : Value.arr =
  match v with
  | Value.VArr a -> a
  | _ -> invalid_arg "expected an array value"

(** Read a float element of a rank-2 value. *)
let get2 (a : Value.arr) i j =
  match Value.index a [ i; j ] with
  | Value.VFloat f | Value.VDouble f -> f
  | Value.VInt n -> float_of_int n
  | _ -> invalid_arg "get2"

let get1 (a : Value.arr) i =
  match Value.index a [ i ] with
  | Value.VFloat f | Value.VDouble f -> f
  | Value.VInt n -> float_of_int n
  | _ -> invalid_arg "get1"

let get1i (a : Value.arr) i =
  match Value.index a [ i ] with
  | Value.VInt n -> n
  | _ -> invalid_arg "get1i"

let get2i (a : Value.arr) i j =
  match Value.index a [ i; j ] with
  | Value.VInt n -> n
  | _ -> invalid_arg "get2i"
