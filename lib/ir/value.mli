(** Runtime values for the IR interpreter and the GPU simulator.

    Arrays are rectangular, flat and strided: indexing yields O(1) views
    sharing the buffer.  Single-precision [float]s are kept rounded to 32
    bits ({!f32}) so Lime [float] arithmetic agrees bit-for-bit with the
    simulated OpenCL device. *)

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

(** {2 Numeric semantics} *)

val f32 : float -> float
(** Round to IEEE-754 single precision. *)

val i32 : int -> int
(** Normalize to Java 32-bit int semantics (wraparound). *)

val i8 : int -> int
(** Narrow to signed 8-bit (Java byte). *)

val u16 : int -> int
(** Narrow to unsigned 16-bit (Java char). *)

(** {2 Arrays} *)

exception Bounds of string

val elem_count : int array -> int
val strides_of : int array -> int array
val make_arr : ?is_value:bool -> Ir.scalar -> int array -> arr
val rank : arr -> int
val length : arr -> int
(** Outer dimension length. *)

val total_bytes : arr -> int

val flat_index : arr -> int array -> int

val view : arr -> int -> arr
(** Row view: drops the outermost dimension; O(1), shares storage. *)

val index : arr -> int list -> t
(** Partial indexing yields a view, full indexing a scalar; every index is
    bounds-checked (raises {!Bounds}). *)

val store : arr -> int list -> t -> unit
(** Scalar store at a full index, or a copying row store when [t] is an
    array and the index is partial. *)

val deep_copy : ?is_value:bool -> arr -> arr

(** {2 Conversions} *)

val of_float_array : ?is_value:bool -> ?elem:Ir.scalar -> float array -> arr
val of_int_array : ?is_value:bool -> ?elem:Ir.scalar -> int array -> arr

val of_float_matrix :
  ?is_value:bool -> ?elem:Ir.scalar -> int -> int -> float array -> arr
(** [of_float_matrix rows cols data] with [data] row-major. *)

val to_int_array : arr -> int array

(** {2 Display and comparison} *)

val to_string : t -> string

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
(** Structural equality with float tolerance; [rtol = atol = 0.0] is exact
    (including shapes). *)
