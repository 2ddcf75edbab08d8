(** Value marshaling across the Java ↔ native boundary (paper §4.3, Fig 6):
    a universal byte-stream wire format with three serializers — the custom
    bulk one, the slow generic (runtime-type-information) one, and the
    §5.3 future-work direct-to-device-layout one — plus the marshaling time
    model used by the Fig 9 accounting. *)

exception Marshal_error of string

type serializer =
  | Custom  (** wire format via custom bulk serializers (§4.3) *)
  | Generic  (** wire format via runtime type information (the slow first
                 implementation: "more than 90% of the time...") *)
  | Direct
      (** §5.3 future work: dense device-layout bytes, skipping the wire
          header and the C-side conversion *)

val encode : Lime_ir.Value.t -> bytes
(** Custom serializer: bulk row-wise encoding. *)

val encode_generic : Lime_ir.Value.t -> bytes
(** Generic serializer; produces bytes identical to {!encode}
    (property-tested), an order of magnitude slower in the cost model. *)

val decode : bytes -> Lime_ir.Value.t

val encode_direct : Lime_ir.Value.t -> bytes
(** Dense row-major device layout, no header; scalars fall back to the
    wire format (they ride in the args struct). *)

val decode_direct :
  elem:Lime_ir.Ir.scalar -> shape:int array -> bytes -> Lime_ir.Value.t

val wire_size : Lime_ir.Value.t -> int
(** Wire size in bytes, without encoding ({!encode} produces exactly this
    many bytes). *)

(** {2 Time model} *)

val java_marshal_seconds : ?serializer:serializer -> ?elem_bytes:int -> int -> float
(** Java-side marshaling time for a payload; priced per *element*
    ([elem_bytes] defaults to 4), so byte arrays cost more per byte —
    matching the paper's Crypt interop observation. *)

val needs_c_marshal : serializer -> bool
(** Does the serializer still require the C-side wire→device conversion? *)

val c_marshal_seconds : int -> float
val jni_seconds : float
