(** Value marshaling across the Java ↔ native boundary (paper §4.3, Fig 6).

    The runtime adopts a universal wire format — a byte stream — so that any
    device backend can consume task inputs.  Two marshallers produce the
    *same* bytes:

    - {!encode_generic}: walks the value recursively using runtime type
      information, element by element.  This is the paper's initial
      implementation, where "more than 90% of the time was spent marshaling";
    - {!encode}: uses custom serializers for primitives and (nested) arrays
      of primitives — bulk copies of whole rows.

    Wire format (little endian):
    [tag] then payload, where tags are: 0 unit, 1 int, 2 long, 3 float,
    4 double, 5 array.  An array is [elem-kind rank dim0..dimK data...].

    The module also provides the marshaling *time model* used by the
    communication accounting of Fig 9 — the real byte counts from these
    encoders feed the model. *)

module Ir = Lime_ir.Ir
module Value = Lime_ir.Value

exception Marshal_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Marshal_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let elem_kind_tag = function
  | Ir.SInt -> 0
  | Ir.SFloat -> 1
  | Ir.SDouble -> 2
  | Ir.SByte -> 3
  | Ir.SLong -> 4
  | Ir.SBool -> 5
  | Ir.SChar -> 6

let elem_kind_of_tag = function
  | 0 -> Ir.SInt
  | 1 -> Ir.SFloat
  | 2 -> Ir.SDouble
  | 3 -> Ir.SByte
  | 4 -> Ir.SLong
  | 5 -> Ir.SBool
  | 6 -> Ir.SChar
  | t -> fail "bad element kind tag %d" t

let add_i32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_i64 buf v = Buffer.add_int64_le buf v
let add_f32 buf v = Buffer.add_int32_le buf (Int32.bits_of_float v)
let add_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let add_elem buf (elem : Ir.scalar) (a : Value.arr) k =
  match (a.Value.buf, elem) with
  | Value.BInt b, (Ir.SInt | Ir.SBool) -> add_i32 buf b.(k)
  | Value.BInt b, Ir.SByte -> Buffer.add_int8 buf (b.(k) land 0xFF)
  | Value.BInt b, Ir.SChar -> Buffer.add_int16_le buf (b.(k) land 0xFFFF)
  | Value.BLong b, _ -> add_i64 buf b.(k)
  | Value.BFloat b, Ir.SFloat -> add_f32 buf b.(k)
  | Value.BFloat b, _ -> add_f64 buf b.(k)
  | _ -> fail "corrupt array buffer"

let header buf (a : Value.arr) =
  Buffer.add_int8 buf 5;
  Buffer.add_int8 buf (elem_kind_tag a.Value.elem);
  Buffer.add_int8 buf (Value.rank a);
  Array.iter (fun d -> add_i32 buf d) a.Value.shape

(** Custom serializer: bulk row-wise encoding of primitive arrays. *)
let rec encode_value buf (v : Value.t) : unit =
  match v with
  | Value.VUnit -> Buffer.add_int8 buf 0
  | Value.VInt i ->
      Buffer.add_int8 buf 1;
      add_i32 buf i
  | Value.VLong l ->
      Buffer.add_int8 buf 2;
      add_i64 buf l
  | Value.VFloat f ->
      Buffer.add_int8 buf 3;
      add_f32 buf f
  | Value.VDouble d ->
      Buffer.add_int8 buf 4;
      add_f64 buf d
  | Value.VArr a ->
      header buf a;
      let contiguous = a.Value.strides = Value.strides_of a.Value.shape in
      let n = Value.elem_count a.Value.shape in
      if contiguous then
        (* the fast path: one pass over the flat buffer *)
        for k = a.Value.offset to a.Value.offset + n - 1 do
          add_elem buf a.Value.elem a k
        done
      else begin
        (* strided view: row-recursive copy *)
        let rec rows (a : Value.arr) =
          if Value.rank a <= 1 then
            for i = 0 to a.Value.shape.(0) - 1 do
              add_elem buf a.Value.elem a (Value.flat_index a [| i |])
            done
          else
            for i = 0 to a.Value.shape.(0) - 1 do
              rows (Value.view a i)
            done
        in
        rows a
      end
  | Value.VObj o -> fail "cannot marshal object of class %s" o.Value.cls
  | Value.VGraph _ -> fail "cannot marshal a task graph"

and encode (v : Value.t) : bytes =
  let buf = Buffer.create 256 in
  encode_value buf v;
  Buffer.to_bytes buf

(** Generic serializer: the element-at-a-time reference implementation
    driven by runtime type information.  Produces identical bytes; exists to
    (a) differential-test the custom one and (b) model the paper's 90%
    marshaling-overhead anecdote in the ablation benchmark. *)
let encode_generic (v : Value.t) : bytes =
  let buf = Buffer.create 256 in
  let rec go (v : Value.t) ~top =
    match v with
    | Value.VArr a when Value.rank a > 0 ->
        if top then header buf a
        else ();
        if Value.rank a = 1 then
          for i = 0 to a.Value.shape.(0) - 1 do
            (* boxes every element through the generic Value.t view *)
            match Value.index a [ i ] with
            | Value.VInt x -> (
                match a.Value.elem with
                | Ir.SByte -> Buffer.add_int8 buf (x land 0xFF)
                | Ir.SChar -> Buffer.add_int16_le buf (x land 0xFFFF)
                | _ -> add_i32 buf x)
            | Value.VLong x -> add_i64 buf x
            | Value.VFloat x -> add_f32 buf x
            | Value.VDouble x -> add_f64 buf x
            | _ -> fail "generic: non-scalar element"
          done
        else
          for i = 0 to a.Value.shape.(0) - 1 do
            go (Value.VArr (Value.view a i)) ~top:false
          done
    | v ->
        if top then encode_value buf v
        else fail "generic: unexpected nested value"
  in
  go v ~top:true;
  Buffer.to_bytes buf

(* ------------------------------------------------------------------ *)
(* Decoding ("the C side" and the return path)                         *)
(* ------------------------------------------------------------------ *)

type reader = { data : bytes; mutable pos : int }

let rd_i8 r =
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let rd_i32 r =
  let v = Bytes.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  Int32.to_int v

let rd_i32_signed r =
  let v = Bytes.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  Int32.to_int v

let rd_i64 r =
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let decode (b : bytes) : Value.t =
  let r = { data = b; pos = 0 } in
  let go () =
    match rd_i8 r with
    | 0 -> Value.VUnit
    | 1 -> Value.VInt (rd_i32_signed r)
    | 2 -> Value.VLong (rd_i64 r)
    | 3 -> Value.VFloat (Int32.float_of_bits (Int32.of_int (rd_i32 r)))
    | 4 -> Value.VDouble (Int64.float_of_bits (rd_i64 r))
    | 5 ->
        let elem = elem_kind_of_tag (rd_i8 r) in
        let rank = rd_i8 r in
        let shape = Array.init rank (fun _ -> rd_i32 r) in
        let a = Value.make_arr ~is_value:true elem shape in
        let n = Value.elem_count shape in
        (match a.Value.buf with
        | Value.BInt dst ->
            for k = 0 to n - 1 do
              dst.(k) <-
                (match elem with
                | Ir.SByte ->
                    let v = rd_i8 r in
                    if v land 0x80 <> 0 then v - 0x100 else v
                | Ir.SChar ->
                    let lo = rd_i8 r in
                    let hi = rd_i8 r in
                    lo lor (hi lsl 8)
                | _ -> rd_i32_signed r)
            done
        | Value.BLong dst ->
            for k = 0 to n - 1 do
              dst.(k) <- rd_i64 r
            done
        | Value.BFloat dst ->
            for k = 0 to n - 1 do
              dst.(k) <-
                (match elem with
                | Ir.SFloat ->
                    Int32.float_of_bits (Int32.of_int (rd_i32 r))
                | _ -> Int64.float_of_bits (rd_i64 r))
            done);
        Value.VArr a
    | t -> fail "bad value tag %d" t
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Size and time model                                                 *)
(* ------------------------------------------------------------------ *)

type serializer =
  | Custom  (** wire format via custom bulk serializers (the paper's §4.3) *)
  | Generic  (** wire format via runtime type information (the slow first
                 implementation) *)
  | Direct
      (** device-layout marshaling — the paper's future work: "marshal
          directly to a format as required for device memory. This would
          approximately halve the marshaling overhead."  Skips the wire
          header and the C-side conversion: the Java side emits the dense
          row-major bytes the device consumes. *)

(* Bytes one array element occupies in either layout: what [add_elem]
   writes, so booleans take a 32-bit word. *)
let elem_width = function
  | Ir.SByte -> 1
  | Ir.SChar -> 2
  | Ir.SInt | Ir.SBool | Ir.SFloat -> 4
  | Ir.SLong | Ir.SDouble -> 8

(** Encoded size in bytes of a value (without encoding it). *)
let wire_size (serializer : serializer) (v : Value.t) : int =
  match (serializer, v) with
  | _, Value.VUnit -> 1
  | _, (Value.VInt _ | Value.VFloat _) -> 5
  | _, (Value.VLong _ | Value.VDouble _) -> 9
  | Direct, Value.VArr a ->
      Value.elem_count a.Value.shape * elem_width a.Value.elem
  | (Custom | Generic), Value.VArr a ->
      3
      + (4 * Value.rank a)
      + (Value.elem_count a.Value.shape * elem_width a.Value.elem)
  | _, (Value.VObj _ | Value.VGraph _) -> 0

(** Java-side marshaling rate model: custom serializers move whole rows at
    memory-copy speed but pay array bounds checks and allocation; the
    generic marshaller boxes every element through runtime type
    information — an order of magnitude slower (the paper's "more than 90%
    of the time was spent marshaling" before custom serializers). *)
let java_marshal_seconds ?(serializer = Custom) ?(elem_bytes = 4)
    (bytes : int) : float =
  (* the cost is per *element*, not per byte: bounds check + store per
     element, so byte arrays marshal at a quarter the byte-rate of float
     arrays (the paper: "the cost of byte-array accesses in Lime are more
     expensive") *)
  let elems = float_of_int bytes /. float_of_int (max 1 elem_bytes) in
  let per_elem =
    match serializer with
    | Custom -> 1.8e-9 (* bulk row copy with bounds checks *)
    | Generic -> 24.0e-9 (* per-element boxing through runtime type info *)
    | Direct -> 1.8e-9 (* same copy, but straight into the device layout *)
  in
  1.5e-6 +. (elems *. per_elem)

(** Does this serializer still need the C-side wire→device conversion? *)
let needs_c_marshal = function Custom | Generic -> true | Direct -> false

(** The C-side (de)serializer is a specialized dense copy. *)
let c_marshal_seconds (bytes : int) : float =
  0.5e-6 +. (float_of_int bytes *. 0.12e-9)

(** Crossing the JNI boundary. *)
let jni_seconds : float = 4.0e-6


(* ------------------------------------------------------------------ *)
(* Direct-to-device layout (the §5.3 future-work serializer)           *)
(* ------------------------------------------------------------------ *)

(** Dense row-major device layout: raw element bytes, no header.  The
    receiving side must know the element kind and shape (the kernel
    signature and the bookkeeping struct carry them in the real system). *)
let encode_direct (v : Value.t) : bytes =
  match v with
  | Value.VArr a ->
      let buf = Buffer.create (Value.elem_count a.Value.shape * 4) in
      let contiguous = a.Value.strides = Value.strides_of a.Value.shape in
      let n = Value.elem_count a.Value.shape in
      if contiguous then
        for k = a.Value.offset to a.Value.offset + n - 1 do
          add_elem buf a.Value.elem a k
        done
      else begin
        let rec rows (a : Value.arr) =
          if Value.rank a <= 1 then
            for i = 0 to a.Value.shape.(0) - 1 do
              add_elem buf a.Value.elem a (Value.flat_index a [| i |])
            done
          else
            for i = 0 to a.Value.shape.(0) - 1 do
              rows (Value.view a i)
            done
        in
        rows a
      end;
      Buffer.to_bytes buf
  | v ->
      (* scalars keep the wire format: they ride in the args struct *)
      encode v

(** Rebuild a value from device-layout bytes given its type and shape. *)
let decode_direct ~(elem : Ir.scalar) ~(shape : int array) (b : bytes) :
    Value.t =
  let a = Value.make_arr ~is_value:true elem shape in
  let n = Value.elem_count shape in
  let expect = n * elem_width elem in
  if Bytes.length b <> expect then
    fail "direct decode: %d bytes but shape needs %d" (Bytes.length b) expect;
  let r = { data = b; pos = 0 } in
  (match a.Value.buf with
  | Value.BInt dst ->
      for k = 0 to n - 1 do
        dst.(k) <-
          (match elem with
          | Ir.SByte ->
              let v = rd_i8 r in
              if v land 0x80 <> 0 then v - 0x100 else v
          | Ir.SChar ->
              let lo = rd_i8 r in
              let hi = rd_i8 r in
              lo lor (hi lsl 8)
          | _ -> rd_i32_signed r)
      done
  | Value.BLong dst ->
      for k = 0 to n - 1 do
        dst.(k) <- rd_i64 r
      done
  | Value.BFloat dst ->
      for k = 0 to n - 1 do
        dst.(k) <-
          (match elem with
          | Ir.SFloat -> Int32.float_of_bits (Int32.of_int (rd_i32 r))
          | _ -> Int64.float_of_bits (rd_i64 r))
      done);
  Value.VArr a
