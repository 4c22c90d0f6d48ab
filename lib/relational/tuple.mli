(** Tuples: fixed-width arrays of {!Value.t}, positionally aligned with a
    {!Schema.t}.  Tuples carry no schema themselves; the owning relation
    does. *)

type t = Value.t array

val make : Value.t list -> t
val arity : t -> int
val get : t -> int -> Value.t
val compare : t -> t -> int
(** Lexicographic, in {!Value.compare_poly}'s order so heterogeneous
    columns still order totally; a shorter tuple that is a prefix of a
    longer one comes first.  Two ints or two strings are compared
    directly. *)

val equal : t -> t -> bool
val project : t -> int array -> t
(** [project tup positions] builds a new tuple from the given positions. *)

val concat : t -> t -> t
val hash : t -> int
(** A hash agreeing with {!equal}: tag by tag, with [-0.0] and [0.0]
    together and every NaN together.  {!Value.hash} is not used, so the
    hash index's bucket layout does not constrain it. *)

module Table : Hashtbl.S with type key = t
(** Hash tables over tuples keyed by {!equal} and {!hash}: the hash
    join's build side. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
