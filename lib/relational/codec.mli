(** Binary serialization of values, tuples, and schemas — the wire format
    the storage engine writes into slotted pages.

    Little-endian and length-prefixed; every value carries a one-byte type
    tag, so records decode without consulting the catalog.  Strings are
    limited to 65535 bytes (they must fit inside a page record). *)

exception Corrupt of string
(** Raised by every reader on malformed input. *)

val add_value : Buffer.t -> Value.t -> unit
val read_value : string -> int ref -> Value.t

val add_tuple : Buffer.t -> Tuple.t -> unit
val read_tuple : string -> int ref -> Tuple.t
val tuple_to_string : Tuple.t -> string
val tuple_of_string : string -> Tuple.t
(** Raises {!Corrupt} on trailing bytes. *)

(** {2 Tuples read in place}

    A scan tests its predicate on each record where it lies in a pinned
    page and decodes only the records that pass. *)

type view
(** One encoded tuple inside a larger buffer, after {!walk}: the buffer
    and the offset of each column.  Reusable from record to record. *)

val view : unit -> view
(** A fresh view, pointing at no record. *)

val walk : view -> Bytes.t -> off:int -> len:int -> unit
(** [walk v b ~off ~len] points [v] at the record in the [len] bytes of
    [b] from [off], after validating it exactly as {!tuple_of_string}
    validates those bytes: type tags, string lengths, the arity and no
    trailing bytes.  Raises {!Corrupt}, with the same message, on the
    records that {!tuple_of_string} rejects. *)

val column : view -> int -> Value.t
(** Column [i] of the walked record, decoded.  A column past the arity
    raises [Invalid_argument], as indexing the decoded tuple does. *)

val compare_column : view -> int -> Value.t -> int
(** [compare_column v i c] is [Value.compare (column v i) c], computed
    without decoding when the column holds a value of [c]'s type
    (floats still compare by [Float.compare] on the decoded float); it
    raises {!Value.Type_clash} across types, as {!Value.compare}
    does. *)

val tuple : view -> Tuple.t
(** The walked record, decoded: the tuple {!tuple_of_string} returns for
    the same bytes. *)

val add_schema : Buffer.t -> Schema.t -> unit
val read_schema : string -> int ref -> Schema.t
val schema_to_string : Schema.t -> string
val schema_of_string : string -> Schema.t
