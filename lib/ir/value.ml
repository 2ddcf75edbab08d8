(** Runtime values for the IR interpreter and the GPU simulator.

    Arrays are rectangular, flat and strided: a multidimensional array is one
    OCaml buffer plus shape/stride metadata, so indexing [a\[i\]] yields an
    O(1) *view* sharing the buffer.  This mirrors the paper's observation
    that the OpenCL backend "only handles rectangular arrays of primitives"
    and keeps the interpreter fast enough to run the real benchmark inputs.

    Single-precision [float] values are rounded to 32-bit after every
    operation ({!f32}) so that Lime [float] arithmetic agrees bit-for-bit
    with the simulated OpenCL device — the property the differential tests
    depend on. *)

type buffer =
  | BInt of int array  (** int / byte / char / bool storage *)
  | BLong of int64 array
  | BFloat of float array  (** float and double storage *)

type arr = {
  elem : Ir.scalar;
  shape : int array;
  strides : int array;  (** in elements, row-major *)
  offset : int;
  buf : buffer;
  is_value : bool;
}

type obj = { cls : string; fields : (string, t) Hashtbl.t }

and task_node = {
  tk_desc : Ir.task_desc;
  tk_instance : obj option;  (** state of an instance worker *)
}

and t =
  | VUnit
  | VInt of int  (** int, byte, char and boolean (0/1), 32-bit semantics *)
  | VLong of int64
  | VFloat of float  (** single precision, kept rounded *)
  | VDouble of float
  | VArr of arr
  | VObj of obj
  | VGraph of task_node list  (** a (linear) task pipeline *)

(** Round to IEEE-754 single precision. *)
let f32 (x : float) = Int32.float_of_bits (Int32.bits_of_float x)

(** Normalize to Java 32-bit int semantics (wraparound). *)
let i32 (x : int) =
  let v = x land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

(** Narrow to signed 8-bit (Java byte). *)
let i8 (x : int) =
  let v = x land 0xFF in
  if v land 0x80 <> 0 then v - 0x100 else v

(** Narrow to unsigned 16-bit (Java char). *)
let u16 (x : int) = x land 0xFFFF

(* ------------------------------------------------------------------ *)
(* Array construction                                                  *)
(* ------------------------------------------------------------------ *)

let elem_count shape = Array.fold_left ( * ) 1 shape

let strides_of shape =
  let n = Array.length shape in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * shape.(i + 1)
  done;
  s

let buffer_for (elem : Ir.scalar) n : buffer =
  match elem with
  | Ir.SInt | Ir.SByte | Ir.SBool | Ir.SChar -> BInt (Array.make n 0)
  | Ir.SLong -> BLong (Array.make n 0L)
  | Ir.SFloat | Ir.SDouble -> BFloat (Array.make n 0.0)

let make_arr ?(is_value = false) elem shape : arr =
  let n = elem_count shape in
  {
    elem;
    shape;
    strides = strides_of shape;
    offset = 0;
    buf = buffer_for elem n;
    is_value;
  }

let rank a = Array.length a.shape
let length a = if rank a = 0 then 0 else a.shape.(0)
let total_bytes a = elem_count a.shape * Ir.scalar_size_bytes a.elem

(* ------------------------------------------------------------------ *)
(* Element access                                                      *)
(* ------------------------------------------------------------------ *)

exception Bounds of string

let check_bounds a dim i =
  if i < 0 || i >= a.shape.(dim) then
    raise
      (Bounds
         (Printf.sprintf "index %d out of bounds for dimension %d (size %d)" i
            dim a.shape.(dim)))

let flat_index a (idx : int array) =
  let off = ref a.offset in
  Array.iteri (fun d i -> off := !off + (i * a.strides.(d))) idx;
  !off

let get_scalar a (idx : int array) : t =
  let k = flat_index a idx in
  match (a.buf, a.elem) with
  | BInt b, _ -> VInt b.(k)
  | BLong b, _ -> VLong b.(k)
  | BFloat b, Ir.SFloat -> VFloat b.(k)
  | BFloat b, _ -> VDouble b.(k)

let set_scalar a (idx : int array) (v : t) =
  let k = flat_index a idx in
  match (a.buf, v) with
  | BInt b, VInt x -> b.(k) <- x
  | BLong b, VLong x -> b.(k) <- x
  | BFloat b, VFloat x -> b.(k) <- x
  | BFloat b, VDouble x -> b.(k) <- x
  | BInt b, VLong x -> b.(k) <- i32 (Int64.to_int x)
  | _ -> invalid_arg "Value.set_scalar: type mismatch"

(* [Array.sub x 1 _]; rows of a matrix, the common case, skip its C call *)
let drop_first (x : int array) =
  let n = Array.length x - 1 in
  if n = 1 then [| x.(1) |] else Array.sub x 1 n

(** View of row [i]: drops the outermost dimension. *)
let view a i =
  check_bounds a 0 i;
  {
    a with
    shape = drop_first a.shape;
    strides = drop_first a.strides;
    offset = a.offset + (i * a.strides.(0));
  }

(** Index with [idx] (length ≤ rank): scalar if full, view otherwise.
    Performs bounds checks on every index. *)
let index a (idx : int list) : t =
  let rec go a = function
    | [] -> VArr a
    | [ i ] when rank a = 1 ->
        check_bounds a 0 i;
        get_scalar a [| i |]
    | i :: rest -> go (view a i) rest
  in
  match idx with
  | [ i ] when rank a = 1 ->
      check_bounds a 0 i;
      get_scalar a [| i |]
  | _ -> go a idx

(** Store into position [idx]; [v] may be a scalar (full index) or an array
    whose contents are copied into the designated sub-view (row store). *)
let rec store a (idx : int list) (v : t) =
  let rec nav a = function
    | [] -> `View a
    | [ i ] when rank a = 1 ->
        check_bounds a 0 i;
        `Cell (a, i)
    | i :: rest -> nav (view a i) rest
  in
  match (nav a idx, v) with
  | `Cell (a, i), v -> set_scalar a [| i |] v
  | `View dst, VArr src -> copy_into ~dst ~src
  | `View _, _ -> invalid_arg "Value.store: scalar into sub-array position"

and copy_into ~dst ~src =
  if dst.shape <> src.shape then
    invalid_arg
      (Printf.sprintf "Value.copy_into: shape mismatch [%s] vs [%s]"
         (String.concat ";" (Array.to_list (Array.map string_of_int dst.shape)))
         (String.concat ";" (Array.to_list (Array.map string_of_int src.shape))));
  (* fast path: both contiguous *)
  let n = elem_count dst.shape in
  let contiguous a = a.strides = strides_of a.shape in
  if contiguous dst && contiguous src then
    match (dst.buf, src.buf) with
    | BInt d, BInt s -> Array.blit s src.offset d dst.offset n
    | BLong d, BLong s -> Array.blit s src.offset d dst.offset n
    | BFloat d, BFloat s -> Array.blit s src.offset d dst.offset n
    | _ -> invalid_arg "Value.copy_into: buffer kind mismatch"
  else
    let rec walk d s =
      if rank d = 0 then ()
      else if rank d = 1 then
        for i = 0 to d.shape.(0) - 1 do
          set_scalar d [| i |] (get_scalar s [| i |])
        done
      else
        for i = 0 to d.shape.(0) - 1 do
          walk (view d i) (view s i)
        done
    in
    walk dst src

(** Deep copy (used by [Lime.toValue] and marshaling). *)
let deep_copy ?is_value a =
  let fresh = make_arr ?is_value a.elem (Array.copy a.shape) in
  copy_into ~dst:fresh ~src:a;
  { fresh with is_value = Option.value is_value ~default:a.is_value }

(* ------------------------------------------------------------------ *)
(* Conversions with OCaml arrays (for tests and benchmarks)            *)
(* ------------------------------------------------------------------ *)

let of_float_array ?(is_value = true) ?(elem = Ir.SFloat) (xs : float array) =
  let a = make_arr ~is_value elem [| Array.length xs |] in
  (match a.buf with
  | BFloat b ->
      Array.iteri
        (fun i x -> b.(i) <- (if elem = Ir.SFloat then f32 x else x))
        xs
  | _ -> assert false);
  a

let of_int_array ?(is_value = true) ?(elem = Ir.SInt) (xs : int array) =
  let a = make_arr ~is_value elem [| Array.length xs |] in
  (match a.buf with
  | BInt b -> Array.blit xs 0 b 0 (Array.length xs)
  | _ -> assert false);
  a

(** Flat 2-D constructor: [of_float_matrix rows cols data]. *)
let of_float_matrix ?(is_value = true) ?(elem = Ir.SFloat) rows cols
    (data : float array) =
  if Array.length data <> rows * cols then
    invalid_arg "of_float_matrix: size mismatch";
  let a = make_arr ~is_value elem [| rows; cols |] in
  (match a.buf with
  | BFloat b ->
      Array.iteri
        (fun i x -> b.(i) <- (if elem = Ir.SFloat then f32 x else x))
        data
  | _ -> assert false);
  a

let to_int_array a : int array =
  let n = elem_count a.shape in
  let contiguous = a.strides = strides_of a.shape in
  match (a.buf, contiguous) with
  | BInt b, true -> Array.sub b a.offset n
  | _ -> failwith "to_int_array: unsupported buffer"

(* ------------------------------------------------------------------ *)
(* Display and comparison                                              *)
(* ------------------------------------------------------------------ *)

let rec to_string = function
  | VUnit -> "()"
  | VInt i -> string_of_int i
  | VLong l -> Int64.to_string l ^ "L"
  | VFloat f -> Printf.sprintf "%gf" f
  | VDouble d -> Printf.sprintf "%g" d
  | VArr a ->
      if rank a = 0 then "[]"
      else if rank a = 1 && a.shape.(0) <= 8 then
        "["
        ^ String.concat ", "
            (List.init a.shape.(0) (fun i -> to_string (index a [ i ])))
        ^ "]"
      else
        Printf.sprintf "%s[%s]" (Ir.scalar_name a.elem)
          (String.concat "x" (Array.to_list (Array.map string_of_int a.shape)))
  | VObj o -> Printf.sprintf "<%s>" o.cls
  | VGraph g -> Printf.sprintf "<graph of %d tasks>" (List.length g)

(** Approximate equality for differential testing: exact on integers,
    relative tolerance on floating point. *)
let rec approx_equal ?(rtol = 1e-5) ?(atol = 1e-6) a b =
  match (a, b) with
  | VUnit, VUnit -> true
  | VInt x, VInt y -> x = y
  | VLong x, VLong y -> Int64.equal x y
  | (VFloat x | VDouble x), (VFloat y | VDouble y) ->
      (* identical values first: the tolerance formula yields nan (hence
         false) for inf vs inf, and two nans agree for a differential
         comparison even though [<=] says otherwise *)
      Float.compare x y = 0
      ||
      let d = Float.abs (x -. y) in
      d <= atol || d <= rtol *. Float.max (Float.abs x) (Float.abs y)
  | VArr x, VArr y ->
      x.shape = y.shape
      && (let ok = ref true in
          let n = if rank x = 0 then 0 else x.shape.(0) in
          (try
             for i = 0 to n - 1 do
               if not (approx_equal ~rtol ~atol (index x [ i ]) (index y [ i ]))
               then begin
                 ok := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !ok)
  | _ -> false
